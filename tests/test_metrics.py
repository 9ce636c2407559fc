import math

import numpy as np
import pytest
from scipy.special import ndtr

from wcfar.estimators import EstimatorConfig, estimate_pfa_zero_effort
from wcfar.metrics import DcfParams, ThresholdSpec, eer_threshold, min_dcf_threshold
from wcfar.score_data import LabeledScoreSet, PackedCorpus
from wcfar.streams import RngStream


def rates_at(tau, labeled):
    """Reference (P_miss, P_fa) at thresholds `tau` (accept iff score > tau).

    Counts by sorted insertion position, which is exact for the piecewise
    constant rates; `tau` may be a scalar or an array.
    """
    tar = np.sort(np.asarray(labeled.target_scores, dtype=float))
    non = np.sort(np.asarray(labeled.nontarget_scores, dtype=float))
    p_miss = np.searchsorted(tar, tau, side="right") / tar.size
    p_fa = 1.0 - np.searchsorted(non, tau, side="right") / non.size
    return p_miss, p_fa


def dcf_at(tau, labeled, p):
    """Reference detection cost at thresholds `tau`, from `rates_at`."""
    p_miss, p_fa = rates_at(tau, labeled)
    norm = min(p.p_target * p.c_miss, (1 - p.p_target) * p.c_fa)
    return (p.p_target * p.c_miss * p_miss + (1 - p.p_target) * p.c_fa * p_fa) / norm


def pair_fa(scores, tau: float) -> float:
    """`PackedCorpus.pair_exceed_fraction` of a one-pair corpus holding `scores`."""
    scores = np.asarray(scores, dtype=float)
    codes = np.zeros(scores.size, dtype=np.int64)
    [fraction] = PackedCorpus.from_codes(["t"], ["i"], codes, codes, scores).pair_exceed_fraction(tau)
    return float(fraction)


class TestEmpiricalPfa:
    """The plain false alarm rate: per pair as the estimators see it, and the zero-effort estimate."""

    def test_counting(self):
        assert pair_fa([-1.0, 0.0, 1.0, 2.0], 0.5) == 0.5

    def test_infinite_thresholds(self):
        scores = [-1.0, 0.0, 1.0]
        assert pair_fa(scores, math.inf) == 0.0
        assert pair_fa(scores, -math.inf) == 1.0

    def test_strict_inequality(self):
        assert pair_fa([1.0, 1.0], 1.0) == 0.0

    def test_gaussian_tail(self):
        draws = RngStream(3).generator().standard_normal(1_000_000)
        assert pair_fa(draws, 1.0) == pytest.approx(float(ndtr(-1.0)), abs=0.001)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no targets"):
            estimate_pfa_zero_effort(PackedCorpus.from_groups({}), 0.0, EstimatorConfig(seed=1))

    def test_nan_tau_rejected(self):
        corpus = PackedCorpus.from_groups({"t": {"i": [1.0]}})
        with pytest.raises(ValueError, match="NaN"):
            estimate_pfa_zero_effort(corpus, math.nan, EstimatorConfig(seed=1))

    def test_non_increasing_in_tau(self):
        g = RngStream(4).generator()
        pairs = {f"i{j}": g.normal(0, 2, size=50 + j) for j in range(10)}
        corpus = PackedCorpus.from_groups({"t": pairs})
        values = np.array([corpus.pair_exceed_fraction(t) for t in np.linspace(-6, 6, 301)])
        assert np.all(np.diff(values, axis=0) <= 0.0)


class TestEer:
    def test_symmetric_gaussians(self):
        g = RngStream(5).generator()
        labeled = LabeledScoreSet(
            target_scores=g.normal(1.0, 1.0, size=100_000),
            nontarget_scores=g.normal(-1.0, 1.0, size=100_000),
        )
        spec, eer = eer_threshold(labeled)
        assert spec.tau == pytest.approx(0.0, abs=0.02)
        assert eer == pytest.approx(float(ndtr(-1.0)), abs=0.005)
        assert spec.provenance == "eer"
        assert not spec.degenerate

    def test_separable_returns_midpoint(self):
        labeled = LabeledScoreSet(target_scores=[1.0, 2.0], nontarget_scores=[-2.0, -1.0])
        spec, eer = eer_threshold(labeled)
        assert spec.tau == pytest.approx(0.0)
        assert eer == 0.0

    def test_single_scores_midpoint(self):
        labeled = LabeledScoreSet(target_scores=[1.0], nontarget_scores=[0.0])
        spec, eer = eer_threshold(labeled)
        assert spec.tau == pytest.approx(0.5)
        assert eer == 0.0

    def test_degenerate_flag(self):
        labeled = LabeledScoreSet(target_scores=[2.0, 2.0], nontarget_scores=[2.0])
        spec, eer = eer_threshold(labeled)
        assert spec.degenerate
        assert spec.tau == 2.0
        assert eer == 0.5

    def test_matches_exhaustive_scan(self):
        # coprime class sizes: P_fa and P_miss never tie inside (0, 1), so the
        # EER is a true average of two different rates
        g = RngStream(6).generator()
        labeled = LabeledScoreSet(
            target_scores=g.normal(1.0, 1.0, size=20_000),
            nontarget_scores=g.normal(-1.0, 1.0, size=30_001),
        )
        spec, eer = eer_threshold(labeled)
        pooled = np.concatenate([labeled.target_scores, labeled.nontarget_scores])
        eps = 1e-9
        candidates = np.concatenate([pooled - eps, pooled, pooled + eps])
        p_miss, p_fa = rates_at(candidates, labeled)
        miss, fa = rates_at(spec.tau, labeled)
        assert abs(fa - miss) <= np.abs(p_fa - p_miss).min() + 1e-12
        assert eer == pytest.approx(0.5 * (fa + miss), abs=1e-12)


class TestMinDcf:
    # the three cost configurations used for operating thresholds
    SETTINGS = [
        DcfParams(0.5, 10.0, 1.0),
        DcfParams(0.5, 1.0, 1.0),
        DcfParams(0.5, 1.0, 10.0),
    ]

    def overlapping(self):
        g = RngStream(6).generator()
        return LabeledScoreSet(
            target_scores=g.normal(1.0, 1.0, size=20_000),
            nontarget_scores=g.normal(-1.0, 1.0, size=20_000),
        )

    @pytest.mark.parametrize("params", SETTINGS)
    def test_matches_exhaustive_scan(self, params):
        labeled = self.overlapping()
        spec, dcf = min_dcf_threshold(labeled, params)
        pooled = np.concatenate([labeled.target_scores, labeled.nontarget_scores])
        eps = 1e-9
        candidates = np.concatenate(
            [pooled - eps, pooled, pooled + eps, [pooled.min() - 1, pooled.max() + 1]]
        )
        oracle = dcf_at(candidates, labeled, params).min()
        assert dcf <= oracle + 1e-12
        assert dcf == pytest.approx(float(dcf_at(spec.tau, labeled, params)), abs=1e-12)

    def test_cost_asymmetry_moves_threshold(self):
        labeled = self.overlapping()
        tau_miss_heavy = min_dcf_threshold(labeled, self.SETTINGS[0])[0].tau
        tau_balanced = min_dcf_threshold(labeled, self.SETTINGS[1])[0].tau
        tau_fa_heavy = min_dcf_threshold(labeled, self.SETTINGS[2])[0].tau
        assert tau_miss_heavy < tau_balanced < tau_fa_heavy

    def test_separable_cost_zero(self):
        labeled = LabeledScoreSet(target_scores=[1.0, 2.0], nontarget_scores=[-2.0, -1.0])
        _, dcf = min_dcf_threshold(labeled, DcfParams(0.5, 1.0, 1.0))
        assert dcf == 0.0

    def test_huge_fa_cost_pushes_threshold_up(self):
        labeled = self.overlapping()
        spec, _ = min_dcf_threshold(labeled, DcfParams(0.5, 1.0, 1e9))
        assert spec.tau > labeled.nontarget_scores.max()

    def test_min_dcf_not_worse_than_eer_threshold(self):
        labeled = self.overlapping()
        for params in self.SETTINGS:
            _, dcf = min_dcf_threshold(labeled, params)
            eer_spec, _ = eer_threshold(labeled)
            assert dcf <= dcf_at(eer_spec.tau, labeled, params) + 1e-12

    def test_degenerate_flag(self):
        labeled = LabeledScoreSet(target_scores=[1.0], nontarget_scores=[1.0])
        spec, dcf = min_dcf_threshold(labeled, DcfParams(0.5, 1.0, 1.0))
        assert spec.degenerate
        assert spec.tau == 1.0
        assert dcf == 1.0


class TestParamValidation:
    @pytest.mark.parametrize("p,cm,cf", [(0.0, 1, 1), (1.0, 1, 1), (0.5, 0, 1), (0.5, 1, -1)])
    def test_dcf_params(self, p, cm, cf):
        with pytest.raises(ValueError):
            DcfParams(p, cm, cf)

    def test_threshold_spec_requires_finite_tau(self):
        with pytest.raises(ValueError):
            ThresholdSpec(tau=math.inf, provenance="manual")
        with pytest.raises(ValueError):
            ThresholdSpec(tau=0.0, provenance="guess")
