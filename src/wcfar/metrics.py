"""Threshold calibration by equal error rate or minimum detection cost.

A trial is accepted when its score is strictly above the threshold, so the
false alarm rate is the fraction of non-target scores above tau and the
miss rate is the fraction of target scores at or below tau.  Candidate
thresholds are the midpoints of adjacent distinct pooled scores plus one
sentinel below and above everything; the detection cost is piecewise
constant between scores, so this scan attains its global minimum.  When the
pool holds a single distinct score, that score is the only candidate and
the threshold is flagged degenerate.

`eer_threshold` and `min_dcf_threshold` each return ``(tau, metric,
degenerate)``: the threshold, the EER or normalised cost achieved there,
and that flag.  A `LabeledScoreSet` holds finite scores in two non-empty
arrays, and the midpoints are taken as ``0.5 * a + 0.5 * b``, which cannot
overflow, so tau is finite but for one input: when the lowest score is
``-sys.float_info.max``, the low sentinel is -inf, the one threshold that
accepts that score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .score_data import LabeledScoreSet


@dataclass(frozen=True)
class DcfParams:
    """Detection cost function parameters (target prior, miss cost, FA cost)."""

    p_target: float
    c_miss: float
    c_fa: float

    def __post_init__(self):
        if not (0.0 < self.p_target < 1.0):
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")
        if not (0.0 < self.c_miss < np.inf and 0.0 < self.c_fa < np.inf):
            raise ValueError(f"costs must be finite and positive, got {self.c_miss}, {self.c_fa}")


def _scan(s: LabeledScoreSet):
    """Candidate thresholds, (P_miss, P_fa) at each, and whether the pool holds one distinct score.

    Every pooled-length array is built in place where it can be, so the
    scan holds at most about five pooled lengths of floats at once.
    """
    tar = np.sort(np.asarray(s.target_scores, dtype=float))
    non = np.sort(np.asarray(s.nontarget_scores, dtype=float))
    pooled = np.concatenate((tar, non))
    pooled.sort()
    distinct = pooled[np.append(True, pooled[1:] != pooled[:-1])]
    del pooled
    degenerate = distinct.size == 1
    if degenerate:
        taus = distinct
    else:
        low = distinct[0] - 1.0
        if low == distinct[0]:  # from about 1e16 in magnitude the step rounds away; take the next float down
            with np.errstate(over="ignore"):  # -inf below -max, the one threshold that accepts -max
                low = np.nextafter(low, -np.inf)
        taus = np.empty(distinct.size + 1)
        taus[0], taus[-1] = low, distinct[-1] + 1.0
        distinct *= 0.5  # each midpoint is 0.5 * a + 0.5 * b
        np.add(distinct[:-1], distinct[1:], out=taus[1:-1])
    del distinct
    p_miss = np.searchsorted(tar, taus, side="right") / len(tar)
    p_fa = np.searchsorted(non, taus, side="right") / len(non)
    np.subtract(1.0, p_fa, out=p_fa)
    return taus, p_miss, p_fa, degenerate


def eer_threshold(s: LabeledScoreSet) -> tuple[float, float, bool]:
    """Threshold equalising false alarm and miss rates, the achieved EER, and the degenerate flag.

    Returns the candidate minimising |P_fa - P_miss|; ties break toward the
    smaller threshold.  If every pooled score is identical the threshold
    degenerates to that value and is flagged.
    """
    taus, p_miss, p_fa, degenerate = _scan(s)
    gap = p_fa - p_miss
    k = int(np.argmin(np.abs(gap, out=gap)))
    return float(taus[k]), float(0.5 * (p_fa[k] + p_miss[k])), degenerate


def min_dcf_threshold(s: LabeledScoreSet, p: DcfParams) -> tuple[float, float, bool]:
    """Threshold minimising the normalised detection cost, that cost, and the degenerate flag.

    The cost p_target*c_miss*P_miss + (1-p_target)*c_fa*P_fa is normalised
    by the better of the two trivial all-accept/all-reject systems.
    """
    taus, p_miss, p_fa, degenerate = _scan(s)
    norm = min(p.p_target * p.c_miss, (1.0 - p.p_target) * p.c_fa)
    dcf = p_miss  # p_target*c_miss*P_miss + (1-p_target)*c_fa*P_fa, accumulated in place
    dcf *= p.p_target * p.c_miss
    p_fa *= (1.0 - p.p_target) * p.c_fa
    dcf += p_fa
    dcf /= norm
    k = int(np.argmin(dcf))
    return float(taus[k]), float(dcf[k]), degenerate
