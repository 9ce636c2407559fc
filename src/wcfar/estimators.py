"""Monte-Carlo false alarm estimators on observed trial corpora.

Two sampling schemes over a corpus of per-pair score sets:

  zero effort   draw a target uniformly, then one of its impostors
                uniformly; record that pair's fraction of scores above tau.

  worst case    draw a target uniformly, then `n_impostors` distinct
                impostors uniformly without replacement; keep the candidate
                whose scores have the highest mean (the closest impostor)
                and record its fraction of scores above tau.

Averaging the per-iteration fractions gives the estimate; the confidence
interval is a normal approximation over the per-iteration values, which are
the independent units of the outer Monte-Carlo loop.  With one candidate
per iteration the worst-case scheme reduces to zero effort.  Targets are
drawn with replacement across iterations, candidate sets are redrawn
independently each iteration, and mean ties break toward the lowest
impostor index.

All draws derive from the config seed through named sub-streams, so a
given (corpus, config) pair always produces the identical estimate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .score_data import PackedCorpus, sample_skewness
from .special_math import ndtri
from .streams import RngStream

_SELECTIONS = ("closest_by_mean", "random")

# fixed sub-stream labels under a diagnose run
_DIAG_CLOSEST, _DIAG_RANDOM = 10, 11


@dataclass(frozen=True)
class EstimatorConfig:
    seed: int
    n_impostors: int = 1
    t_outer: int = 1000
    selection: str = "closest_by_mean"

    def __post_init__(self):
        if self.t_outer < 1:
            raise ValueError(f"t_outer must be >= 1, got {self.t_outer}")
        if self.n_impostors < 1:
            raise ValueError(f"n_impostors must be >= 1, got {self.n_impostors}")
        if self.selection not in _SELECTIONS:
            raise ValueError(f"selection must be one of {_SELECTIONS}, got {self.selection!r}")


@dataclass(frozen=True)
class EstimateWithCI:
    """A rate in [0, 1] with its confidence interval and provenance."""

    value: float
    ci_low: float
    ci_high: float
    n_outer: int
    n_impostors: int
    tau: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"estimate {self.value} outside [0, 1]")
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ValueError(
                f"confidence interval [{self.ci_low}, {self.ci_high}] does not bracket {self.value}"
            )


def confidence_interval(per_iter_estimates, level: float = 0.99) -> tuple[float, float]:
    """Normal-approximation interval for the mean, clamped to [0, 1]."""
    values = np.asarray(per_iter_estimates, dtype=float)
    if values.size < 2:
        raise ValueError("confidence interval is undefined for fewer than 2 iterations")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    mean = float(values.mean())
    stderr = float(values.std(ddof=1)) / math.sqrt(values.size)
    z = ndtri(0.5 * (1.0 + level))
    return max(mean - z * stderr, 0.0), min(mean + z * stderr, 1.0)


def _validated(packed: PackedCorpus) -> PackedCorpus:
    if packed.n_targets < 1:
        raise ValueError("corpus has no targets")
    pools = packed.pairs_per_target
    if np.any(pools < 1):
        bad = packed.target_ids[int(np.argmin(pools))]
        raise ValueError(f"target {bad!r} has no impostor groups")
    if np.any(packed.pair_count < 1):
        raise ValueError("corpus contains a pair with no scores")
    return packed


def _require_pool(packed: PackedCorpus, n_impostors: int):
    pools = packed.pairs_per_target
    if np.any(pools < n_impostors):
        bad = packed.target_ids[int(np.argmin(pools))]
        raise ConfigError(
            f"n_impostors={n_impostors} exceeds the {int(pools.min())} impostors "
            f"available for target {bad!r}"
        )


def _draw_pairs(
    packed: PackedCorpus,
    pair_means: np.ndarray | None,
    n_impostors: int,
    selection: str,
    t_outer: int,
    stream: RngStream,
) -> np.ndarray:
    """Pair index selected at each outer iteration."""
    g_target = stream.child(0).generator()
    g_impostor = stream.child(1).generator()
    idx = g_target.integers(0, packed.n_targets, size=t_outer)
    starts = packed.target_offsets[:-1]
    pools = packed.pairs_per_target
    if n_impostors == 1:
        u = g_impostor.random(t_outer)
        return starts[idx] + np.floor(u * pools[idx]).astype(np.int64)
    selected = np.empty(t_outer, dtype=np.int64)
    random_pick = selection == "random"
    for t in range(t_outer):
        i = idx[t]
        candidates = g_impostor.choice(pools[i], size=n_impostors, replace=False)
        candidates.sort()
        base = starts[i]
        if random_pick:
            selected[t] = base + candidates[g_impostor.integers(n_impostors)]
        else:
            selected[t] = base + candidates[int(np.argmax(pair_means[base + candidates]))]
    return selected


def _estimate(values: np.ndarray, cfg: EstimatorConfig, n_impostors: int, tau: float, level: float):
    value = float(values.mean())
    low, high = confidence_interval(values, level) if values.size >= 2 else (value, value)
    return EstimateWithCI(
        value=value,
        ci_low=low,
        ci_high=high,
        n_outer=cfg.t_outer,
        n_impostors=n_impostors,
        tau=tau,
    )


def estimate_pfa_zero_effort(
    corpus: PackedCorpus,
    tau: float,
    cfg: EstimatorConfig,
    level: float = 0.99,
) -> EstimateWithCI:
    """Probability of accepting a randomly chosen impostor at threshold `tau`.

    `cfg.n_impostors` and `cfg.selection` are ignored: each iteration draws
    a single impostor uniformly within a uniformly drawn target.
    """
    packed = _validated(corpus)
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    pair_fa = packed.pair_exceed_fraction(tau)
    selected = _draw_pairs(packed, None, 1, "random", cfg.t_outer, RngStream(cfg.seed))
    return _estimate(pair_fa[selected], cfg, 1, tau, level)


def estimate_pfa_worst_case(
    corpus: PackedCorpus,
    tau: float,
    cfg: EstimatorConfig,
    level: float = 0.99,
) -> EstimateWithCI:
    """Probability of accepting the closest of `cfg.n_impostors` candidates.

    With ``selection="random"`` the candidate is drawn uniformly from the
    sampled set instead, which matches the zero-effort rate in expectation
    for every population size.
    """
    packed = _validated(corpus)
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    _require_pool(packed, cfg.n_impostors)
    pair_fa = packed.pair_exceed_fraction(tau)
    pair_means = packed.pair_means()
    selected = _draw_pairs(
        packed, pair_means, cfg.n_impostors, cfg.selection, cfg.t_outer, RngStream(cfg.seed)
    )
    return _estimate(pair_fa[selected], cfg, cfg.n_impostors, tau, level)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Score-shape mismatch indicators for the shared-variance Gaussian model.

    Spread with closest versus random impostors is reported as the square
    root of the average per-pair variance over the selected pairs.
    """

    tau: float
    n_impostors: int
    t_outer: int
    avg_pairwise_skewness: float | None
    pair_mean_skewness: float | None
    skewness_excluded_pairs: int
    closest_impostor_stdev: float | None
    random_impostor_stdev: float | None
    closest_excluded_iterations: int
    random_excluded_iterations: int

    def to_json(self) -> dict:
        return asdict(self)


def _selected_stdev(pair_var: np.ndarray, selected: np.ndarray) -> tuple[float | None, int]:
    values = pair_var[selected]
    kept = values[~np.isnan(values)]
    excluded = int(values.size - kept.size)
    if kept.size == 0:
        return None, excluded
    return float(math.sqrt(kept.mean())), excluded


def diagnose(
    corpus: PackedCorpus,
    tau: float,
    cfg: EstimatorConfig,
) -> DiagnosticsReport:
    """Quantify how far the corpus is from the generative model's assumptions.

    Reports the average skewness of per-pair scores, the skewness of the
    per-pair means, and the average spread of scores when impostors are
    picked as closest-of-N versus at random (same candidate-set sizes).
    Pairs with fewer than 2 scores are skipped from the spread averages.
    """
    packed = _validated(corpus)
    _require_pool(packed, cfg.n_impostors)
    pair_means = packed.pair_means()
    pair_var = packed.pair_variances()

    skews = packed.pair_skewness()
    kept = skews[~np.isnan(skews)]

    root = RngStream(cfg.seed)
    closest = _draw_pairs(
        packed, pair_means, cfg.n_impostors, "closest_by_mean", cfg.t_outer, root.child(_DIAG_CLOSEST)
    )
    rand = _draw_pairs(
        packed, pair_means, cfg.n_impostors, "random", cfg.t_outer, root.child(_DIAG_RANDOM)
    )
    closest_sd, closest_skip = _selected_stdev(pair_var, closest)
    random_sd, random_skip = _selected_stdev(pair_var, rand)
    return DiagnosticsReport(
        tau=tau,
        n_impostors=cfg.n_impostors,
        t_outer=cfg.t_outer,
        avg_pairwise_skewness=float(kept.mean()) if kept.size else None,
        pair_mean_skewness=sample_skewness(pair_means),
        skewness_excluded_pairs=int(skews.size - kept.size),
        closest_impostor_stdev=closest_sd,
        random_impostor_stdev=random_sd,
        closest_excluded_iterations=closest_skip,
        random_excluded_iterations=random_skip,
    )
