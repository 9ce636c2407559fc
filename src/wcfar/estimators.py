"""Exact false alarm estimators on observed trial corpora.

Two selection schemes over a corpus of per-pair score sets:

  zero effort   draw a target uniformly, then one of its impostors
                uniformly; record that pair's fraction of scores above tau.

  worst case    draw a target uniformly, then `n_impostors` distinct
                impostors uniformly without replacement; keep the candidate
                whose scores have the highest mean (the closest impostor)
                and record its fraction of scores above tau.

Both are computed as the exact expectation over these draws, not by
simulating them.  Within a target of P pairs ranked by mean, highest first
with ties to the lower pair index, the rank-k pair is the closest of N
with probability C(P-1-k, N-1) / C(P, N); each target's value is the
weighted sum of its pairs' fractions.  The estimate is the mean over
targets, and the confidence interval is a normal approximation across
targets, the independent units of the corpus.  With one candidate the
worst-case scheme reduces to zero effort, as does picking a random member
of the candidate set at any N.  Nothing here draws a random number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .score_data import PackedCorpus, sample_skewness
from .special_math import ndtri


@dataclass(frozen=True)
class EstimatorConfig:
    """Population size N and the Monte-Carlo settings of the model predictors.

    The corpus estimators read only `n_impostors`.
    """

    seed: int
    n_impostors: int = 1
    t_outer: int = 1000

    def __post_init__(self):
        if self.t_outer < 1:
            raise ValueError(f"t_outer must be >= 1, got {self.t_outer}")
        if self.n_impostors < 1:
            raise ValueError(f"n_impostors must be >= 1, got {self.n_impostors}")


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


def confidence_interval(values, level: float = 0.99) -> tuple[float, float]:
    """Normal-approximation interval for the mean of independent values, clamped to [0, 1]."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("confidence interval is undefined for fewer than 2 values")
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


def _closest_weights(packed: PackedCorpus, n_impostors: int) -> np.ndarray:
    """Per pair, the probability that it is the closest of `n_impostors`
    candidates drawn without replacement from its target's pairs.

    With S_k = C(P-k, N) / C(P, N), the chance that every candidate ranks k
    or lower, the rank-k pair wins with probability S_k - S_{k+1}.  One
    table per distinct pool size P is built from the ratio S_{k+1} / S_k =
    (P-k-N) / (P-k), which stays in range where C(P, N) overflows.
    """
    pools = packed.pairs_per_target[packed.pair_target]
    rank = packed.pair_rank
    weights = np.empty(packed.n_pairs)
    for p in np.unique(pools).tolist():
        k = np.arange(p)
        s = np.concatenate(([1.0], np.cumprod(np.maximum(p - k - n_impostors, 0) / (p - k))))
        at = pools == p
        weights[at] = (s[:-1] - s[1:])[rank[at]]
    return weights


def _uniform_weights(packed: PackedCorpus) -> np.ndarray:
    """Per pair, the probability that a random impostor of its target picks it."""
    return 1.0 / packed.pairs_per_target[packed.pair_target]


def _target_means(packed: PackedCorpus, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per target, the `weights`-weighted mean of the per-pair `values`.

    Dividing by the summed weights, not by 1, keeps constant values exact:
    tau = -inf gives exactly 1 and tau = +inf exactly 0.
    """
    t, size = packed.pair_target, packed.n_targets
    return np.bincount(t, weights * values, size) / np.bincount(t, weights, size)


def _estimate(values: np.ndarray, n_impostors: int, tau: float, level: float) -> EstimateWithCI:
    """Mean of the independent `values` with its normal interval."""
    value = float(values.mean())
    low, high = confidence_interval(values, level) if values.size >= 2 else (value, value)
    return EstimateWithCI(value, low, high, values.size, n_impostors, tau)


def estimate_pfa_zero_effort(
    corpus: PackedCorpus,
    tau: float,
    cfg: EstimatorConfig,
    level: float = 0.99,
) -> EstimateWithCI:
    """Probability of accepting a random impostor of a random target at threshold `tau`.

    Each target contributes the mean of its pairs' fractions of scores
    above `tau`.  `cfg.n_impostors` is ignored.
    """
    packed = _validated(corpus)
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    values = _target_means(packed, _uniform_weights(packed), packed.pair_exceed_fraction(tau))
    return _estimate(values, 1, tau, level)


def estimate_pfa_worst_case(
    corpus: PackedCorpus,
    tau: float,
    cfg: EstimatorConfig,
    level: float = 0.99,
) -> EstimateWithCI:
    """Probability of accepting the closest of `cfg.n_impostors` candidates."""
    packed = _validated(corpus)
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    _require_pool(packed, cfg.n_impostors)
    weights = _closest_weights(packed, cfg.n_impostors)
    values = _target_means(packed, weights, packed.pair_exceed_fraction(tau))
    return _estimate(values, cfg.n_impostors, tau, level)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Score-shape mismatch indicators for the shared-variance Gaussian model.

    Spread with closest versus random impostors is the square root of the
    per-pair variance averaged with each pair's probability of selection,
    over the pairs with 2 or more scores; `*_excluded_share` is the
    selection probability that falls on the other pairs.  `t_outer`
    echoes the config and is not used.
    """

    tau: float
    n_impostors: int
    t_outer: int
    avg_pairwise_skewness: float | None
    pair_mean_skewness: float | None
    skewness_excluded_pairs: int
    closest_impostor_stdev: float | None
    random_impostor_stdev: float | None
    closest_excluded_share: float
    random_excluded_share: float

    def to_json(self) -> dict:
        return asdict(self)


def _selected_stdev(pair_var: np.ndarray, weights: np.ndarray) -> tuple[float | None, float]:
    kept = ~np.isnan(pair_var)
    excluded_share = float(weights[~kept].sum() / weights.sum())
    kept_weight = weights[kept].sum()
    if kept_weight == 0:
        return None, excluded_share
    return float(math.sqrt(weights[kept] @ pair_var[kept] / kept_weight)), excluded_share


def diagnose(
    corpus: PackedCorpus,
    tau: float,
    cfg: EstimatorConfig,
) -> DiagnosticsReport:
    """Quantify how far the corpus is from the generative model's assumptions.

    Reports the average skewness of per-pair scores, the skewness of the
    per-pair means, and the average spread of scores when the impostor is
    the closest of `cfg.n_impostors` versus a random one.
    """
    packed = _validated(corpus)
    _require_pool(packed, cfg.n_impostors)
    pair_var = packed.pair_variances()
    skews = packed.pair_skewness()
    kept = skews[~np.isnan(skews)]
    closest_sd, closest_share = _selected_stdev(pair_var, _closest_weights(packed, cfg.n_impostors))
    random_sd, random_share = _selected_stdev(pair_var, _uniform_weights(packed))
    return DiagnosticsReport(
        tau=tau,
        n_impostors=cfg.n_impostors,
        t_outer=cfg.t_outer,
        avg_pairwise_skewness=float(kept.mean()) if kept.size else None,
        pair_mean_skewness=sample_skewness(packed.pair_means()),
        skewness_excluded_pairs=int(skews.size - kept.size),
        closest_impostor_stdev=closest_sd,
        random_impostor_stdev=random_sd,
        closest_excluded_share=closest_share,
        random_excluded_share=random_share,
    )
