import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from wcfar.estimators import estimate_pfa_worst_case
from wcfar.metrics import DcfParams, eer_threshold, min_dcf_threshold
from wcfar.score_data import LabeledScoreSet, PackedCorpus
from wcfar.streams import RngStream

import corpora


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
    [fraction] = PackedCorpus.from_codes(["t"], ["i"], codes, codes, codes + 1, scores).pair_exceed_fraction(tau)
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
            estimate_pfa_worst_case(corpora.groups({}), 0.0, 1)

    def test_nan_tau_rejected(self):
        corpus = corpora.groups({"t": {"i": [1.0]}})
        with pytest.raises(ValueError, match="NaN"):
            estimate_pfa_worst_case(corpus, math.nan, 1)

    def test_non_increasing_in_tau(self):
        g = RngStream(4).generator()
        pairs = {f"i{j}": g.normal(0, 2, size=50 + j) for j in range(10)}
        corpus = corpora.groups({"t": pairs})
        values = np.array([corpus.pair_exceed_fraction(t) for t in np.linspace(-6, 6, 301)])
        assert np.all(np.diff(values, axis=0) <= 0.0)


class TestEer:
    def test_symmetric_gaussians(self):
        g = RngStream(5).generator()
        labeled = LabeledScoreSet(
            target_scores=g.normal(1.0, 1.0, size=100_000),
            nontarget_scores=g.normal(-1.0, 1.0, size=100_000),
        )
        tau, eer, degenerate = eer_threshold(labeled)
        assert tau == pytest.approx(0.0, abs=0.02)
        assert eer == pytest.approx(float(ndtr(-1.0)), abs=0.005)
        assert not degenerate

    def test_separable_returns_midpoint(self):
        labeled = LabeledScoreSet(target_scores=[1.0, 2.0], nontarget_scores=[-2.0, -1.0])
        tau, eer, _ = eer_threshold(labeled)
        assert tau == pytest.approx(0.0)
        assert eer == 0.0

    def test_single_scores_midpoint(self):
        labeled = LabeledScoreSet(target_scores=[1.0], nontarget_scores=[0.0])
        tau, eer, _ = eer_threshold(labeled)
        assert tau == pytest.approx(0.5)
        assert eer == 0.0

    def test_scores_at_the_float_range_give_a_finite_midpoint(self):
        # 0.5 * (a + b) overflows here; the midpoint 1.745e308 separates the classes
        labeled = LabeledScoreSet(target_scores=[1.79e308], nontarget_scores=[1.7e308, -1.79e308])
        tau, eer, degenerate = eer_threshold(labeled)
        assert math.isfinite(tau) and 1.7e308 <= tau < 1.79e308
        assert eer == 0.0 and not degenerate
        assert min_dcf_threshold(labeled, DcfParams(0.5, 1.0, 1.0))[:2] == (tau, 0.0)

    def test_lowest_score_past_1e16_gets_a_sentinel_below_it(self):
        # -1e300 - 1.0 rounds back to -1e300: without a step down, no candidate accepts every trial
        tau, dcf, degenerate = min_dcf_threshold(LabeledScoreSet([-1e300], [0.0]), DcfParams(0.5, 10, 1))
        assert dcf == 1.0 and not degenerate
        assert math.isfinite(tau) and tau < -1e300

    def test_a_lowest_score_of_minus_max_gets_minus_inf(self):
        # no finite float lies below -max: tau = -max accepted no trial, so the cost was 10, not the all-accept 1
        labeled = LabeledScoreSet([-sys.float_info.max], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nextafter(-max, -inf) overflows
            assert min_dcf_threshold(labeled, DcfParams(0.5, 10, 1)) == (-math.inf, 1.0, False)
            assert eer_threshold(labeled) == (-sys.float_info.max / 2, 1.0, False)

    def test_degenerate_flag(self):
        labeled = LabeledScoreSet(target_scores=[2.0, 2.0], nontarget_scores=[2.0])
        tau, eer, degenerate = eer_threshold(labeled)
        assert degenerate
        assert tau == 2.0
        assert eer == 0.5

    def test_matches_exhaustive_scan(self):
        # coprime class sizes: P_fa and P_miss never tie inside (0, 1), so the
        # EER is a true average of two different rates
        g = RngStream(6).generator()
        labeled = LabeledScoreSet(
            target_scores=g.normal(1.0, 1.0, size=20_000),
            nontarget_scores=g.normal(-1.0, 1.0, size=30_001),
        )
        tau, eer, _ = eer_threshold(labeled)
        pooled = np.concatenate([labeled.target_scores, labeled.nontarget_scores])
        eps = 1e-9
        candidates = np.concatenate([pooled - eps, pooled, pooled + eps])
        p_miss, p_fa = rates_at(candidates, labeled)
        miss, fa = rates_at(tau, labeled)
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
        tau, dcf, _ = min_dcf_threshold(labeled, params)
        pooled = np.concatenate([labeled.target_scores, labeled.nontarget_scores])
        eps = 1e-9
        candidates = np.concatenate(
            [pooled - eps, pooled, pooled + eps, [pooled.min() - 1, pooled.max() + 1]]
        )
        oracle = dcf_at(candidates, labeled, params).min()
        assert dcf <= oracle + 1e-12
        assert dcf == pytest.approx(float(dcf_at(tau, labeled, params)), abs=1e-12)

    def test_cost_asymmetry_moves_threshold(self):
        labeled = self.overlapping()
        tau_miss_heavy, _, _ = min_dcf_threshold(labeled, self.SETTINGS[0])
        tau_balanced, _, _ = min_dcf_threshold(labeled, self.SETTINGS[1])
        tau_fa_heavy, _, _ = min_dcf_threshold(labeled, self.SETTINGS[2])
        assert tau_miss_heavy < tau_balanced < tau_fa_heavy

    def test_separable_cost_zero(self):
        labeled = LabeledScoreSet(target_scores=[1.0, 2.0], nontarget_scores=[-2.0, -1.0])
        _, dcf, _ = min_dcf_threshold(labeled, DcfParams(0.5, 1.0, 1.0))
        assert dcf == 0.0

    def test_huge_fa_cost_pushes_threshold_up(self):
        labeled = self.overlapping()
        tau, _, _ = min_dcf_threshold(labeled, DcfParams(0.5, 1.0, 1e9))
        assert tau > labeled.nontarget_scores.max()

    def test_min_dcf_not_worse_than_eer_threshold(self):
        labeled = self.overlapping()
        for params in self.SETTINGS:
            _, dcf, _ = min_dcf_threshold(labeled, params)
            eer_tau, _, _ = eer_threshold(labeled)
            assert dcf <= dcf_at(eer_tau, labeled, params) + 1e-12

    def test_degenerate_flag(self):
        labeled = LabeledScoreSet(target_scores=[1.0], nontarget_scores=[1.0])
        tau, dcf, degenerate = min_dcf_threshold(labeled, DcfParams(0.5, 1.0, 1.0))
        assert degenerate
        assert tau == 1.0
        assert dcf == 1.0


def scan_out_of_place(labeled):
    """The candidate thresholds and the rates at them, each array built by its own expression."""
    tar, non = np.sort(labeled.target_scores), np.sort(labeled.nontarget_scores)
    pooled = np.sort(np.concatenate((tar, non)))
    distinct = pooled[np.concatenate(([True], pooled[1:] != pooled[:-1]))]
    if distinct.size == 1:
        taus = distinct
    else:
        low = distinct[0] - 1.0
        if low == distinct[0]:
            low = np.nextafter(low, -np.inf)
        taus = np.concatenate(([low], 0.5 * distinct[:-1] + 0.5 * distinct[1:], [distinct[-1] + 1.0]))
    p_miss = np.searchsorted(tar, taus, side="right") / tar.size
    p_fa = 1.0 - np.searchsorted(non, taus, side="right") / non.size
    return taus, p_miss, p_fa, distinct.size == 1


class TestInPlaceScan:
    @pytest.mark.parametrize(
        "scale", [1.0, 5e-324, 1e300, 0.0], ids=["normal", "subnormal", "near-the-float-range", "one-score"]
    )
    def test_results_equal_the_out_of_place_scan_bit_for_bit(self, scale):
        g = np.random.default_rng(21)
        tar = np.round(g.normal(1.0, 1.0, 300) * 8) * scale  # ties within and across the classes
        non = np.round(g.normal(-1.0, 1.0, 2000) * 8) * scale
        labeled = LabeledScoreSet(tar, non)
        taus, p_miss, p_fa, degenerate = scan_out_of_place(labeled)
        k = int(np.argmin(np.abs(p_fa - p_miss)))
        assert eer_threshold(labeled) == (float(taus[k]), float(0.5 * (p_fa[k] + p_miss[k])), degenerate)
        p = DcfParams(0.01, 1.0, 3.0)
        norm = min(p.p_target * p.c_miss, (1.0 - p.p_target) * p.c_fa)
        dcf = (p.p_target * p.c_miss * p_miss + (1.0 - p.p_target) * p.c_fa * p_fa) / norm
        k = int(np.argmin(dcf))
        assert min_dcf_threshold(labeled, p) == (float(taus[k]), float(dcf[k]), degenerate)

    def test_peak_memory_stays_within_five_and_a_half_pooled_lengths(self):
        # a new array per step peaked at 8.2 pooled lengths; sorting, halving and accumulating in place, 5.2
        g = np.random.default_rng(5)
        labeled = LabeledScoreSet(g.normal(1.0, 1.0, 5000), g.normal(-1.0, 1.0, 40_000))
        pooled_bytes = labeled.target_scores.nbytes + labeled.nontarget_scores.nbytes
        for scan in (eer_threshold, lambda s: min_dcf_threshold(s, DcfParams(0.01, 1.0, 1.0))):
            _, peak = corpora.traced_peak(scan, labeled)
            assert peak <= 5.5 * pooled_bytes


class TestParamValidation:
    @pytest.mark.parametrize("p,cm,cf", [(0.0, 1, 1), (1.0, 1, 1), (0.5, 0, 1), (0.5, 1, -1)])
    def test_dcf_params(self, p, cm, cf):
        with pytest.raises(ValueError):
            DcfParams(p, cm, cf)

    @pytest.mark.parametrize("cost", ["c_miss", "c_fa"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_dcf_costs_must_be_finite(self, cost, bad):
        # an infinite cost made the normalised cost inf / inf, NaN
        with pytest.raises(ValueError, match="costs must be finite and positive"):
            DcfParams(0.5, **{"c_miss": 1.0, "c_fa": 1.0, cost: bad})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_labeled_scores_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="target_scores holds a score that is not finite"):
            LabeledScoreSet([bad], [0.0])
        with pytest.raises(ValueError, match="nontarget_scores holds a score that is not finite"):
            LabeledScoreSet([0.0], [1.0, bad])

    def test_labeled_scores_must_not_be_empty(self):
        with pytest.raises(ValueError, match="target_scores is empty"):
            LabeledScoreSet([], [0.0])
        with pytest.raises(ValueError, match="nontarget_scores is empty"):
            LabeledScoreSet([0.0], [])
