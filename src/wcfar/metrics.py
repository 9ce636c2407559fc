"""Threshold calibration by equal error rate or minimum detection cost.

A trial is accepted when its score is strictly above the threshold, so the
false alarm rate is the fraction of non-target scores above tau and the
miss rate is the fraction of target scores at or below tau.  Candidate
thresholds are the midpoints of adjacent distinct pooled scores plus one
sentinel below and above everything; the detection cost is piecewise
constant between scores, so this scan attains its global minimum.  When the
pool holds a single distinct score, that score is the only candidate and
the threshold is flagged degenerate.
"""

from __future__ import annotations

import math
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
        if not (self.c_miss > 0 and self.c_fa > 0):
            raise ValueError(f"costs must be positive, got {self.c_miss}, {self.c_fa}")


@dataclass(frozen=True)
class ThresholdSpec:
    """An operating threshold and how it was chosen."""

    tau: float
    provenance: str  # "eer" | "min_dcf" | "manual"
    dcf_params: DcfParams | None = None
    degenerate: bool = False

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if self.provenance not in ("eer", "min_dcf", "manual"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


def _scan(s: LabeledScoreSet):
    """Candidate thresholds, (P_miss, P_fa) at each, and whether the pool holds one distinct score."""
    tar = np.sort(np.asarray(s.target_scores, dtype=float))
    non = np.sort(np.asarray(s.nontarget_scores, dtype=float))
    distinct = np.unique(np.concatenate((tar, non)))
    degenerate = distinct.size == 1
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    taus = distinct if degenerate else np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))
    p_miss = np.searchsorted(tar, taus, side="right") / len(tar)
    p_fa = 1.0 - np.searchsorted(non, taus, side="right") / len(non)
    return taus, p_miss, p_fa, degenerate


def eer_threshold(s: LabeledScoreSet) -> tuple[ThresholdSpec, float]:
    """Threshold equalising false alarm and miss rates, with the achieved EER.

    Returns the candidate minimising |P_fa - P_miss|; ties break toward the
    smaller threshold.  If every pooled score is identical the threshold
    degenerates to that value and is flagged.
    """
    taus, p_miss, p_fa, degenerate = _scan(s)
    k = int(np.argmin(np.abs(p_fa - p_miss)))
    return (
        ThresholdSpec(tau=float(taus[k]), provenance="eer", degenerate=degenerate),
        float(0.5 * (p_fa[k] + p_miss[k])),
    )


def min_dcf_threshold(s: LabeledScoreSet, p: DcfParams) -> tuple[ThresholdSpec, float]:
    """Threshold minimising the normalised detection cost, with that cost.

    The cost p_target*c_miss*P_miss + (1-p_target)*c_fa*P_fa is normalised
    by the better of the two trivial all-accept/all-reject systems.
    """
    taus, p_miss, p_fa, degenerate = _scan(s)
    norm = min(p.p_target * p.c_miss, (1.0 - p.p_target) * p.c_fa)
    dcf = (p.p_target * p.c_miss * p_miss + (1.0 - p.p_target) * p.c_fa * p_fa) / norm
    k = int(np.argmin(dcf))
    spec = ThresholdSpec(tau=float(taus[k]), provenance="min_dcf", dcf_params=p, degenerate=degenerate)
    return spec, float(dcf[k])
