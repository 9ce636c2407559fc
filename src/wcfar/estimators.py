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
weighted sum of its pairs' fractions.  Zero effort is the same kernel at
N = 1, where every weight is exactly 1/P.  The estimate is the mean over
targets, and the confidence interval is a 99% normal approximation across
targets, the independent units of the corpus.  Nothing here draws a
random number, so the estimators take the threshold and N only, and
`diagnose`, which reads no threshold, takes N only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .special_math import ndtri

if TYPE_CHECKING:  # the model predictor imports this module and reads no corpus
    from .score_data import PackedCorpus


@dataclass(frozen=True)
class EstimateWithCI:
    """A rate in [0, 1] with its confidence interval."""

    value: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"estimate {self.value} outside [0, 1]")
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ValueError(
                f"confidence interval [{self.ci_low}, {self.ci_high}] does not bracket {self.value}"
            )


_Z99 = ndtri(0.995)  # the normal quantile of a two-sided 99% interval


def _require_pool(packed: PackedCorpus, n_impostors: int):
    """Refuse a corpus without targets or with an empty pair, and an N that some target cannot draw."""
    if packed.n_targets < 1:
        raise ValueError("corpus has no targets")
    if np.any(packed.pair_count < 1):
        raise ValueError("corpus contains a pair with no scores")
    if n_impostors < 1:
        raise ValueError(f"n_impostors must be >= 1, got {n_impostors}")
    pools = packed.pairs_per_target
    if np.any(pools < n_impostors):
        bad = packed.target_ids[int(np.argmin(pools))]
        raise ConfigError(
            f"n_impostors={n_impostors} exceeds the {int(pools.min())} impostors "
            f"available for target {bad!r}"
        )


def _rank_weights(packed: PackedCorpus, n_impostors: int) -> np.ndarray:
    """Per pair, the probability that it is the closest of `n_impostors`
    candidates drawn without replacement from its target's pairs.

    In a pool of P pairs the rank-k pair wins with probability
    w_k = C(P-1-k, N-1) / C(P, N).  One table per distinct pool size is
    built directly from w_0 = N/P and w_{k+1} = w_k (P-k-N) / (P-k-1): no
    difference is taken, C(P, N) never has to be in range, and N = 1
    gives exactly 1/P at every rank.
    """
    pools = packed.pairs_per_target[packed.pair_target]
    rank = packed.pair_rank
    weights = np.empty(packed.n_pairs)
    for p in set(packed.pairs_per_target.tolist()):
        k = np.arange(p - 1)
        w = np.cumprod(np.concatenate(([n_impostors / p], np.maximum(p - k - n_impostors, 0) / (p - k - 1))))
        at = pools == p
        weights[at] = w[rank[at]]
    return weights


def _target_means(packed: PackedCorpus, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per target, the `weights`-weighted mean of the per-pair `values`.

    Dividing by the summed weights, not by 1, keeps constant values exact:
    tau = -inf gives exactly 1 and tau = +inf exactly 0.
    """
    t, size = packed.pair_target, packed.n_targets
    return np.bincount(t, weights * values, size) / np.bincount(t, weights, size)


def _estimate(values: np.ndarray) -> EstimateWithCI:
    """Mean of the independent `values` with its 99% normal interval, clamped to [0, 1]; a point for one value."""
    value = float(values.mean())
    if values.size < 2:
        return EstimateWithCI(value, value, value)
    stderr = float(values.std(ddof=1)) / math.sqrt(values.size)
    return EstimateWithCI(value, max(value - _Z99 * stderr, 0.0), min(value + _Z99 * stderr, 1.0))


def estimate_pfa_worst_case(corpus: PackedCorpus, tau: float, n_impostors: int) -> EstimateWithCI:
    """Probability of accepting the closest of `n_impostors` candidates."""
    _require_pool(corpus, n_impostors)
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    weights = _rank_weights(corpus, n_impostors)
    return _estimate(_target_means(corpus, weights, corpus.pair_exceed_fraction(tau)))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Score-shape mismatch indicators for the shared-variance Gaussian model.

    Spread with closest versus random impostors is the square root of the
    per-pair variance averaged with each pair's probability of selection,
    over the pairs with 2 or more scores; `*_excluded_share` is the
    selection probability that falls on the other pairs.
    """

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


def diagnose(corpus: PackedCorpus, n_impostors: int) -> DiagnosticsReport:
    """Quantify how far the corpus is from the generative model's assumptions.

    Reports the average skewness of per-pair scores, the skewness of the
    per-pair means, and the average spread of scores when the impostor is
    the closest of `n_impostors` versus a random one.
    """
    from .score_data import sample_skewness

    _require_pool(corpus, n_impostors)
    pair_var = corpus.pair_variances()
    skews = corpus.pair_skewness()
    kept = skews[~np.isnan(skews)]
    closest_sd, closest_share = _selected_stdev(pair_var, _rank_weights(corpus, n_impostors))
    random_sd, random_share = _selected_stdev(pair_var, _rank_weights(corpus, 1))
    return DiagnosticsReport(
        avg_pairwise_skewness=float(kept.mean()) if kept.size else None,
        pair_mean_skewness=sample_skewness(corpus.pair_means()),
        skewness_excluded_pairs=int(skews.size - kept.size),
        closest_impostor_stdev=closest_sd,
        random_impostor_stdev=random_sd,
        closest_excluded_share=closest_share,
        random_excluded_share=random_share,
    )
