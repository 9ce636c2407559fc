import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from wcfar.errors import ConfigError
from wcfar.estimators import (
    EstimateWithCI,
    EstimatorConfig,
    confidence_interval,
    diagnose,
    estimate_pfa_worst_case,
    estimate_pfa_zero_effort,
)
from wcfar.model import Hyperparameters
from wcfar.score_data import PackedCorpus, sample_skewness
from wcfar.special_math import ndtri as wcfar_ndtri
from wcfar.streams import RngStream
from wcfar.synthetic import SyntheticSpec, generate_model_corpus

Z99 = float(ndtri(0.995))


def joint_halfwidth(a: EstimateWithCI, b: EstimateWithCI) -> float:
    """99% interval for the difference of two independent estimates."""
    se_a = (a.ci_high - a.ci_low) / (2.0 * Z99)
    se_b = (b.ci_high - b.ci_low) / (2.0 * Z99)
    return Z99 * math.hypot(se_a, se_b)


class TestConfidenceInterval:
    def test_constant_values(self):
        low, high = confidence_interval([0.3] * 10, 0.99)
        assert high - low <= 1e-12
        assert low == pytest.approx(0.3) and high == pytest.approx(0.3)

    def test_bernoulli_closed_form(self):
        values = [0.0, 1.0] * 5000
        low, high = confidence_interval(values, 0.99)
        z = ndtri(0.995)
        stderr = np.std(values, ddof=1) / 100.0
        assert low == pytest.approx(0.5 - z * stderr, abs=1e-12)
        assert high == pytest.approx(0.5 + z * stderr, abs=1e-12)
        assert (low, high) == pytest.approx((0.4871, 0.5129), abs=2e-4)

    def test_level_monotone(self):
        values = [0.0, 1.0] * 100
        wide = confidence_interval(values, 0.99)
        narrow = confidence_interval(values, 0.5)
        assert wide[0] < narrow[0] < narrow[1] < wide[1]

    def test_clamped_to_unit_interval(self):
        low, high = confidence_interval([0.0, 0.0, 0.0, 1.0], 0.999999)
        assert low == 0.0 and high == 1.0

    def test_too_few_iterations(self):
        with pytest.raises(ValueError):
            confidence_interval([0.5], 0.99)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            confidence_interval([0.1, 0.2], 1.5)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6])
    def test_quantile_matches_scipy(self, level):
        z = wcfar_ndtri(0.5 * (1.0 + level))
        assert abs(z - ndtri(0.5 * (1.0 + level))) <= 4 * math.ulp(z)
        # deviations -3/8, 1/8, 1/8, 1/8 about 0.5: the mean and the stderr 1/8 are exact
        low, high = confidence_interval([0.125, 0.625, 0.625, 0.625], level)
        assert (low, high) == (max(0.5 - z / 8, 0.0), min(0.5 + z / 8, 1.0))


class TestZeroEffort:
    def test_all_below_threshold(self):
        corpus = PackedCorpus.from_groups({"t": {"a": [0.0, 0.1], "b": [-1.0]}})
        est = estimate_pfa_zero_effort(corpus, 5.0, EstimatorConfig(seed=1, t_outer=500))
        assert est.value == 0.0
        assert (est.ci_low, est.ci_high) == (0.0, 0.0)

    def test_single_pair_exact(self):
        corpus = PackedCorpus.from_groups({"t": {"a": [-1.0, 1.0]}})
        for t_outer in (2, 17, 400):
            est = estimate_pfa_zero_effort(corpus, 0.0, EstimatorConfig(seed=3, t_outer=t_outer))
            assert est.value == 0.5

    def test_iid_gaussian_corpus(self):
        g = RngStream(8).generator()
        corpus = PackedCorpus.from_groups(
            {
                f"t{i}": {f"i{j}": g.standard_normal(100) for j in range(20)}
                for i in range(50)
            }
        )
        est = estimate_pfa_zero_effort(corpus, 1.0, EstimatorConfig(seed=9, t_outer=10_000))
        expected = float(ndtr(-1.0))
        # the estimator targets the corpus-conditional rate, which itself
        # fluctuates around the population value with the corpus size
        corpus_se = math.sqrt(expected * (1 - expected) / corpus.n_scores)
        assert est.value == pytest.approx(expected, abs=0.012)
        pooled = float(np.mean(corpus.scores > 1.0))
        assert est.ci_low - 3 * corpus_se < pooled < est.ci_high + 3 * corpus_se
        assert est.ci_low < pooled < est.ci_high

    def test_infinite_thresholds(self):
        corpus = PackedCorpus.from_groups({"t": {"a": [0.0, 1.0], "b": [2.0]}})
        cfg = EstimatorConfig(seed=1, t_outer=100)
        assert estimate_pfa_zero_effort(corpus, -math.inf, cfg).value == 1.0
        assert estimate_pfa_zero_effort(corpus, math.inf, cfg).value == 0.0

    def test_empty_impostor_list_rejected(self):
        corpus = PackedCorpus.from_groups({"t": {}})
        with pytest.raises(ValueError, match="no impostor groups"):
            estimate_pfa_zero_effort(corpus, 0.0, EstimatorConfig(seed=1))

    def test_matches_pooled_rate_for_equal_sizes(self):
        # with equal scores per pair the estimator's expectation is the
        # flat fraction of all scores above tau
        g = RngStream(10).generator()
        corpus = PackedCorpus.from_groups(
            {f"t{i}": {f"i{j}": g.standard_normal(10) for j in range(5)} for i in range(40)}
        )
        pooled = float(np.mean(corpus.scores > 0.5))
        est = estimate_pfa_zero_effort(corpus, 0.5, EstimatorConfig(seed=11, t_outer=60_000))
        assert abs(est.value - pooled) <= 1.2 * (est.ci_high - est.ci_low) / 2.0


class TestWorstCase:
    def test_three_impostor_enumeration(self):
        # candidate pairs at N=2 out of {A, B, C}: (A,B) picks B with rate 0,
        # (A,C) and (B,C) pick C with rate 1, so the expectation is 2/3
        corpus = PackedCorpus.from_groups({"t": {"A": [0.0, 0.0], "B": [1.0, 1.0], "C": [2.0, 2.0]}})
        cfg = EstimatorConfig(seed=5, n_impostors=2, t_outer=100_000)
        est = estimate_pfa_worst_case(corpus, 1.5, cfg)
        sigma = math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / cfg.t_outer)
        assert abs(est.value - 2.0 / 3.0) <= 3.0 * sigma

    def test_reduces_to_zero_effort_at_n1(self):
        corpus = generate_model_corpus(
            SyntheticSpec(
                theta=Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0),
                t_targets=100,
                n_impostors_per_target=30,
                l_scores_per_pair=10,
                seed=31,
            )
        )
        cfg_a = EstimatorConfig(seed=7, n_impostors=1, t_outer=20_000)
        worst = estimate_pfa_worst_case(corpus, 1.0, cfg_a)
        zero = estimate_pfa_zero_effort(corpus, 1.0, EstimatorConfig(seed=8, t_outer=20_000))
        assert abs(worst.value - zero.value) <= joint_halfwidth(worst, zero)

    def test_random_selection_matches_zero_effort(self):
        corpus = generate_model_corpus(
            SyntheticSpec(
                theta=Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0),
                t_targets=100,
                n_impostors_per_target=30,
                l_scores_per_pair=10,
                seed=32,
            )
        )
        cfg = EstimatorConfig(seed=12, n_impostors=8, t_outer=20_000, selection="random")
        rand = estimate_pfa_worst_case(corpus, 1.0, cfg)
        zero = estimate_pfa_zero_effort(corpus, 1.0, EstimatorConfig(seed=13, t_outer=20_000))
        assert abs(rand.value - zero.value) <= joint_halfwidth(rand, zero)

    def test_non_decreasing_in_population_size(self):
        corpus = generate_model_corpus(
            SyntheticSpec(
                theta=Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0),
                t_targets=60,
                n_impostors_per_target=40,
                l_scores_per_pair=8,
                seed=33,
            )
        )
        est2 = estimate_pfa_worst_case(corpus, 1.5, EstimatorConfig(seed=14, n_impostors=2, t_outer=10_000))
        est8 = estimate_pfa_worst_case(corpus, 1.5, EstimatorConfig(seed=14, n_impostors=8, t_outer=10_000))
        assert est8.value >= est2.value - joint_halfwidth(est2, est8)

    def test_tie_break_lowest_impostor_index(self):
        # equal means: the first impostor in sorted-id order must win
        corpus = PackedCorpus.from_groups({"t": {"a": [1.0, -1.0], "b": [-1.0, 1.0], "c": [-1.0, 1.0]}})
        cfg = EstimatorConfig(seed=2, n_impostors=3, t_outer=64)
        est = estimate_pfa_worst_case(corpus, 0.0, cfg)
        # all three pairs tie on mean 0; pair "a" is always selected
        assert est.value == 0.5

    def test_seed_determinism(self):
        corpus = PackedCorpus.from_groups(
            {f"t{i}": {f"i{j}": [float(i + j), float(i - j)] for j in range(6)} for i in range(4)}
        )
        cfg = EstimatorConfig(seed=77, n_impostors=3, t_outer=500)
        a = estimate_pfa_worst_case(corpus, 0.5, cfg)
        b = estimate_pfa_worst_case(corpus, 0.5, cfg)
        assert a == b

    def test_infinite_thresholds(self):
        corpus = PackedCorpus.from_groups({"t": {"a": [0.0, 1.0], "b": [2.0, 3.0]}})
        cfg = EstimatorConfig(seed=1, n_impostors=2, t_outer=100)
        assert estimate_pfa_worst_case(corpus, -math.inf, cfg).value == 1.0
        assert estimate_pfa_worst_case(corpus, math.inf, cfg).value == 0.0

    def test_pool_too_small(self):
        corpus = PackedCorpus.from_groups({"t": {"a": [0.0], "b": [1.0]}})
        with pytest.raises(ConfigError, match="exceeds"):
            estimate_pfa_worst_case(corpus, 0.0, EstimatorConfig(seed=1, n_impostors=3))

    def test_values_within_unit_interval(self):
        corpus = PackedCorpus.from_groups({"t": {"a": [0.4, 0.6], "b": [0.2, 0.8], "c": [0.5, 0.5]}})
        cfg = EstimatorConfig(seed=4, n_impostors=2, t_outer=300)
        est = estimate_pfa_worst_case(corpus, 0.45, cfg)
        assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0


class TestConfigValidation:
    def test_bad_t_outer(self):
        with pytest.raises(ValueError):
            EstimatorConfig(seed=1, t_outer=0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            EstimatorConfig(seed=1, n_impostors=0)

    def test_bad_selection(self):
        with pytest.raises(ValueError):
            EstimatorConfig(seed=1, selection="nearest")

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            EstimateWithCI(value=1.2, ci_low=0.0, ci_high=1.0, n_outer=10, n_impostors=1, tau=0.0)
        with pytest.raises(ValueError):
            EstimateWithCI(value=0.5, ci_low=0.6, ci_high=1.0, n_outer=10, n_impostors=1, tau=0.0)


class TestDiagnose:
    def test_symmetric_corpus_small_mean_skewness(self):
        corpus = generate_model_corpus(
            SyntheticSpec(
                theta=Hyperparameters(0.0, 1.0, 5.0, 4.0, 4.0, 4.0),
                t_targets=2000,
                n_impostors_per_target=1,
                l_scores_per_pair=4,
                seed=41,
            )
        )
        report = diagnose(corpus, 1.0, EstimatorConfig(seed=42, n_impostors=1, t_outer=2000))
        assert abs(report.pair_mean_skewness) < 4.0 * math.sqrt(6.0 / 2000)

    def test_closest_impostors_lower_spread_when_constructed(self):
        # high-mean pairs are built with half the spread, so closest-of-N
        # selection must report a smaller average standard deviation
        g = RngStream(43).generator()
        groups = {}
        for j in range(30):
            mean = float(j)
            sd = 0.5 if j >= 20 else 2.0
            groups[f"i{j:02d}"] = mean + sd * g.standard_normal(40)
        corpus = PackedCorpus.from_groups({"t": groups})
        report = diagnose(corpus, 10.0, EstimatorConfig(seed=44, n_impostors=10, t_outer=4000))
        assert report.closest_impostor_stdev < report.random_impostor_stdev

    def test_short_pairs_are_counted(self):
        corpus = PackedCorpus.from_groups({"t": {"a": [0.5], "b": [0.1, 0.9, 0.2], "c": [0.4, 0.6, 0.8]}})
        report = diagnose(corpus, 0.0, EstimatorConfig(seed=45, n_impostors=1, t_outer=300))
        assert report.skewness_excluded_pairs == 1
        # a constant pair has no skewness, even where its mean is off by an ulp
        constant = PackedCorpus.from_groups({"t": {"a": [0.1] * 3, "b": [0.2, 0.5, 0.9]}})
        report_constant = diagnose(constant, 0.0, EstimatorConfig(seed=45, n_impostors=1, t_outer=300))
        assert report_constant.skewness_excluded_pairs == 1
        assert report_constant.avg_pairwise_skewness == pytest.approx(
            sample_skewness([0.2, 0.5, 0.9]), rel=1e-12
        )
        assert report.closest_excluded_iterations > 0
        total = report.to_json()
        assert set(total) >= {"avg_pairwise_skewness", "closest_impostor_stdev"}
