import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from wcfar.errors import ConfigError
from wcfar.estimators import (
    EstimateWithCI,
    _estimate,
    _rank_weights,
    diagnose,
    estimate_pfa_worst_case,
)
from wcfar.model import Hyperparameters, predict_pfa
from wcfar.score_data import PackedCorpus, sample_skewness
from wcfar.special_math import ndtri as wcfar_ndtri
from wcfar.streams import RngStream
from wcfar.synthetic import SyntheticSpec, model_blocks

import corpora
from oracles import comb_worst_case, loop_diagnose_variances, loop_estimate_pfa_worst_case, loop_zero_effort

Z99 = float(ndtri(0.995))


def joint_halfwidth(a: EstimateWithCI, b: EstimateWithCI) -> float:
    """99% interval for the difference of two independent estimates."""
    se_a = (a.ci_high - a.ci_low) / (2.0 * Z99)
    se_b = (b.ci_high - b.ci_low) / (2.0 * Z99)
    return Z99 * math.hypot(se_a, se_b)


def interval(values) -> tuple[float, float]:
    """The interval `_estimate` puts around the mean of `values`."""
    est = _estimate(np.asarray(values, dtype=float))
    return est.ci_low, est.ci_high


class TestConfidenceInterval:
    def test_constant_values(self):
        low, high = interval([0.3] * 10)
        assert high - low <= 1e-12
        assert low == pytest.approx(0.3) and high == pytest.approx(0.3)

    def test_bernoulli_closed_form(self):
        values = [0.0, 1.0] * 5000
        low, high = interval(values)
        z = ndtri(0.995)
        stderr = np.std(values, ddof=1) / 100.0
        assert low == pytest.approx(0.5 - z * stderr, abs=1e-12)
        assert high == pytest.approx(0.5 + z * stderr, abs=1e-12)
        assert (low, high) == pytest.approx((0.4871, 0.5129), abs=2e-4)

    def test_clamped_to_unit_interval(self):
        low, high = interval([0.0, 0.0, 1.0])
        assert low == 0.0 and high == 1.0

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6])
    def test_quantile_matches_scipy(self, level):
        z = wcfar_ndtri(0.5 * (1.0 + level))
        assert abs(z - ndtri(0.5 * (1.0 + level))) <= 4 * math.ulp(z)

    def test_interval_is_99_percent(self):
        z = wcfar_ndtri(0.5 * (1.0 + 0.99))
        # deviations -3/8, 1/8, 1/8, 1/8 about 0.5: the mean and the stderr 1/8 are exact
        low, high = interval([0.125, 0.625, 0.625, 0.625])
        assert (low, high) == (0.5 - z / 8, 0.5 + z / 8)


class TestZeroEffort:
    def test_all_below_threshold(self):
        corpus = corpora.groups({"t": {"a": [0.0, 0.1], "b": [-1.0]}})
        est = estimate_pfa_worst_case(corpus, 5.0, 1)
        assert est.value == 0.0
        assert (est.ci_low, est.ci_high) == (0.0, 0.0)

    def test_single_pair_exact(self):
        corpus = corpora.groups({"t": {"a": [-1.0, 1.0]}})
        est = estimate_pfa_worst_case(corpus, 0.0, 1)
        assert est.value == 0.5

    def test_iid_gaussian_corpus(self):
        g = RngStream(8).generator()
        corpus = corpora.groups(
            {
                f"t{i}": {f"i{j}": g.standard_normal(100) for j in range(20)}
                for i in range(50)
            }
        )
        est = estimate_pfa_worst_case(corpus, 1.0, 1)
        expected = float(ndtr(-1.0))
        # the estimator targets the corpus-conditional rate, which itself
        # fluctuates around the population value with the corpus size
        corpus_se = math.sqrt(expected * (1 - expected) / corpus.n_scores)
        assert est.value == pytest.approx(expected, abs=0.012)
        pooled = float(np.mean(corpus.scores > 1.0))
        assert est.ci_low - 3 * corpus_se < pooled < est.ci_high + 3 * corpus_se
        assert est.ci_low < pooled < est.ci_high

    def test_infinite_thresholds(self):
        corpus = corpora.groups({"t": {"a": [0.0, 1.0], "b": [2.0]}})
        assert estimate_pfa_worst_case(corpus, -math.inf, 1).value == 1.0
        assert estimate_pfa_worst_case(corpus, math.inf, 1).value == 0.0

    def test_empty_impostor_list_rejected(self):
        corpus = corpora.groups({"t": {}})
        with pytest.raises(ValueError, match="exceeds the 0 impostors available for target 't'"):
            estimate_pfa_worst_case(corpus, 0.0, 1)

    def test_matches_pooled_rate_for_equal_sizes(self):
        # with equal scores per pair the estimator's expectation is the
        # flat fraction of all scores above tau
        g = RngStream(10).generator()
        corpus = corpora.groups(
            {f"t{i}": {f"i{j}": g.standard_normal(10) for j in range(5)} for i in range(40)}
        )
        pooled = float(np.mean(corpus.scores > 0.5))
        est = estimate_pfa_worst_case(corpus, 0.5, 1)
        assert abs(est.value - pooled) <= 1e-12


class TestRankWeights:
    @pytest.mark.parametrize("p", [1, 2, 5, 250, 3000])
    def test_match_exact_rationals(self, p):
        # w_k = C(P-1-k, N-1) / C(P, N) for the rank-k pair of a pool of P
        corpus = corpora.groups({"t": {f"i{j}": [float(j)] for j in range(p)}})
        by_rank = np.argsort(corpus.pair_rank)
        for n in sorted({1, 2, 3, 64, p} & set(range(1, p + 1))):
            weights = _rank_weights(corpus, n)[by_rank].tolist()
            exact = [Fraction(math.comb(p - 1 - k, n - 1), math.comb(p, n)) for k in range(p)]
            assert all(w == 0.0 for w, e in zip(weights, exact) if not e), n
            worst = max(abs(Fraction(w) - e) / e for w, e in zip(weights, exact) if e)
            assert worst <= 1e-13, (n, float(worst))
        assert _rank_weights(corpus, 1).tolist() == [1.0 / p] * p


class TestWorstCase:
    def test_three_impostor_enumeration(self):
        # candidate pairs at N=2 out of {A, B, C}: (A,B) picks B with rate 0,
        # (A,C) and (B,C) pick C with rate 1, so the expectation is 2/3
        corpus = corpora.groups({"t": {"A": [0.0, 0.0], "B": [1.0, 1.0], "C": [2.0, 2.0]}})
        est = estimate_pfa_worst_case(corpus, 1.5, 2)
        assert abs(est.value - 2.0 / 3.0) <= 1e-12

    def test_reduces_to_zero_effort_at_n1(self):
        corpus = corpora.pack(model_blocks(
            SyntheticSpec(
                theta=Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0),
                t_targets=100,
                n_impostors_per_target=30,
                l_scores_per_pair=10,
                seed=31,
            )
        ))
        worst = estimate_pfa_worst_case(corpus, 1.0, 1)
        assert abs(worst.value - loop_zero_effort(corpus, 1.0)) <= 1e-12

    def test_non_decreasing_in_population_size(self):
        corpus = corpora.pack(model_blocks(
            SyntheticSpec(
                theta=Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0),
                t_targets=60,
                n_impostors_per_target=40,
                l_scores_per_pair=8,
                seed=33,
            )
        ))
        est2 = estimate_pfa_worst_case(corpus, 1.5, 2)
        est8 = estimate_pfa_worst_case(corpus, 1.5, 8)
        assert est8.value >= est2.value

    def test_tie_break_lowest_impostor_index(self):
        # all three pairs tie on mean 0, and only pair "a" has a score above
        # 0.5: it wins every candidate set it is in only if ties go to the
        # first impostor in sorted-id order
        corpus = corpora.groups({"t": {"a": [1.0, -1.0], "b": [0.0, 0.0], "c": [-0.5, 0.5]}})
        for n, expected in ((1, 1.0 / 6.0), (2, 1.0 / 3.0), (3, 0.5)):
            est = estimate_pfa_worst_case(corpus, 0.5, n)
            assert abs(est.value - expected) <= 1e-12, n

    def test_seed_determinism(self):
        # nothing is drawn: a repeated call gives the same estimate
        corpus = corpora.groups(
            {f"t{i}": {f"i{j}": [float(i + j), float(i - j)] for j in range(6)} for i in range(4)}
        )
        assert estimate_pfa_worst_case(corpus, 0.5, 3) == estimate_pfa_worst_case(corpus, 0.5, 3)

    def test_infinite_thresholds(self):
        corpus = corpora.groups({"t": {"a": [0.0, 1.0], "b": [2.0, 3.0]}})
        assert estimate_pfa_worst_case(corpus, -math.inf, 2).value == 1.0
        assert estimate_pfa_worst_case(corpus, math.inf, 2).value == 0.0
        # pools whose rank weights, summed in rank order, do not add up to exactly 1
        for pool in (5, 9, 10, 12):
            corpus = corpora.groups({"t": {f"i{j:02d}": [-float(j)] for j in range(pool)}})
            for n in (1, 2, 3):
                assert estimate_pfa_worst_case(corpus, -math.inf, n).value == 1.0, (pool, n)
                assert estimate_pfa_worst_case(corpus, math.inf, n).value == 0.0, (pool, n)

    def test_pool_too_small(self):
        corpus = corpora.groups({"t": {"a": [0.0], "b": [1.0]}})
        with pytest.raises(ConfigError, match="exceeds"):
            estimate_pfa_worst_case(corpus, 0.0, 3)

    def test_values_within_unit_interval(self):
        corpus = corpora.groups({"t": {"a": [0.4, 0.6], "b": [0.2, 0.8], "c": [0.5, 0.5]}})
        est = estimate_pfa_worst_case(corpus, 0.45, 2)
        assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0


THETA = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)


class TestConfigValidation:
    def test_bad_t_outer(self):
        with pytest.raises(ValueError, match="t_outer must be >= 1"):
            predict_pfa(THETA, 0.0, [1], seed=1, t_outer=0)

    def test_bad_n(self):
        corpus = corpora.groups({"t": {"a": [0.0], "b": [1.0]}})
        for n in (0, -3):
            with pytest.raises(ValueError, match=f"n_impostors must be >= 1, got {n}"):
                predict_pfa(THETA, 0.0, [n], seed=1)
            with pytest.raises(ValueError, match=f"n_impostors must be >= 1, got {n}"):
                estimate_pfa_worst_case(corpus, 0.0, n)
            with pytest.raises(ValueError, match=f"n_impostors must be >= 1, got {n}"):
                diagnose(corpus, n)
        with pytest.raises(ValueError, match="n_impostors must be at most"):
            predict_pfa(THETA, 0.0, [10**400], seed=1)

    def test_nan_tau(self):
        corpus = corpora.groups({"t": {"a": [0.0], "b": [1.0]}})
        with pytest.raises(ValueError, match="tau must not be NaN"):
            estimate_pfa_worst_case(corpus, math.nan, 1)

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            EstimateWithCI(value=1.2, ci_low=0.0, ci_high=1.0)
        with pytest.raises(ValueError):
            EstimateWithCI(value=0.5, ci_low=0.6, ci_high=1.0)


class TestDiagnose:
    def test_symmetric_corpus_small_mean_skewness(self):
        corpus = corpora.pack(model_blocks(
            SyntheticSpec(
                theta=Hyperparameters(0.0, 1.0, 5.0, 4.0, 4.0, 4.0),
                t_targets=2000,
                n_impostors_per_target=1,
                l_scores_per_pair=4,
                seed=41,
            )
        ))
        report = diagnose(corpus, 1)
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
        corpus = corpora.groups({"t": groups})
        report = diagnose(corpus, 10)
        assert report.closest_impostor_stdev < report.random_impostor_stdev

    def test_short_pairs_are_counted(self):
        corpus = corpora.groups({"t": {"a": [0.5], "b": [0.1, 0.9, 0.2], "c": [0.4, 0.6, 0.8]}})
        report = diagnose(corpus, 1)
        assert report.skewness_excluded_pairs == 1
        # a constant pair has no skewness, even where its mean is off by an ulp
        constant = corpora.groups({"t": {"a": [0.1] * 3, "b": [0.2, 0.5, 0.9]}})
        report_constant = diagnose(constant, 1)
        assert report_constant.skewness_excluded_pairs == 1
        assert report_constant.avg_pairwise_skewness == pytest.approx(
            sample_skewness([0.2, 0.5, 0.9]), rel=1e-12
        )
        # at N = 1 both schemes pick each of the three pairs with probability 1/3
        assert report.closest_excluded_share == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report.random_excluded_share == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report.closest_impostor_stdev == pytest.approx(report.random_impostor_stdev, rel=1e-12)
        total = report.to_json()
        assert set(total) >= {"avg_pairwise_skewness", "closest_impostor_stdev"}

    def test_single_score_pairs_have_no_spread(self):
        corpus = corpora.groups({"t": {"a": [0.0], "b": [1.0]}, "u": {"a": [2.0], "b": [0.5]}})
        report = diagnose(corpus, 2)
        assert report.closest_impostor_stdev is None and report.random_impostor_stdev is None
        assert report.closest_excluded_share == 1.0 and report.random_excluded_share == 1.0
        assert report.avg_pairwise_skewness is None and report.skewness_excluded_pairs == 4

    def test_spreads_are_selection_weighted(self):
        # ranks by mean: c, b, a.  At N = 2, c wins with probability 2/3 and
        # b with 1/3; a random pick takes each pair with probability 1/3
        corpus = corpora.groups({"t": {"a": [0.0], "b": [1.0, 3.0], "c": [3.0, 7.0]}})
        report = diagnose(corpus, 2)
        assert report.closest_impostor_stdev == pytest.approx(math.sqrt((2 * 8.0 + 2.0) / 3.0), rel=1e-12)
        assert report.closest_excluded_share == 0.0
        assert report.random_impostor_stdev == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert report.random_excluded_share == pytest.approx(1.0 / 3.0, rel=1e-12)


def unequal_pools_with_ties():
    """Targets of 3, 4 and 7 pairs on a half-integer grid; several pairs tie on mean."""
    return {
        "t0": {"i0": [0.5, 1.5], "i1": [1.0], "i2": [2.0, 0.0]},
        "t1": {"i0": [1.0, -1.0], "i1": [0.0, 0.0], "i2": [-0.5, 0.5], "i3": [3.0]},
        "t2": {
            "i0": [2.0], "i1": [1.0, 3.0], "i2": [0.0, 4.0, 2.0], "i3": [-1.0, 0.5],
            "i4": [1.5, 1.5], "i5": [-0.5], "i6": [3.5, -3.5],
        },
    }


def unequal_model_groups(seed):
    """A model-like corpus of 40 targets with 5 to 29 impostors and 1 to 5 scores per pair."""
    g = RngStream(seed).generator()
    groups = {}
    for t in range(40):
        m, spread = g.normal(), 0.5 + g.random()
        groups[f"t{t:02d}"] = {
            f"i{j:02d}": m + g.normal(0.0, spread) + g.standard_normal(int(g.integers(1, 6)))
            for j in range(int(g.integers(5, 30)))
        }
    return groups


class TestExactOracles:
    @pytest.mark.parametrize("tau", [-1.0, 0.0, 0.5, 1.5])
    def test_matches_comb_oracle_with_ties_and_unequal_pools(self, tau):
        groups = unequal_pools_with_ties()
        corpus = corpora.groups(groups)
        for n in (1, 2, 3):
            est = estimate_pfa_worst_case(corpus, tau, n)
            assert abs(est.value - comb_worst_case(groups, tau, n)) <= 1e-12, n

    def test_matches_comb_oracle_on_model_corpus(self):
        model = unequal_model_groups(3)
        groups = {t: {i: v.tolist() for i, v in pairs.items()} for t, pairs in model.items()}
        corpus = corpora.groups(groups)
        for n in (1, 2, 5):
            est = estimate_pfa_worst_case(corpus, 0.8, n)
            assert abs(est.value - comb_worst_case(groups, 0.8, n)) <= 1e-12

    @pytest.mark.parametrize("n, seed", [(1, 21), (2, 22), (5, 23)])
    def test_within_loop_oracle_halfwidth(self, n, seed):
        corpus = corpora.groups(unequal_model_groups(4))
        exact = estimate_pfa_worst_case(corpus, 0.8, n)
        loop = loop_estimate_pfa_worst_case(corpus, 0.8, n, seed=seed, t_outer=20_000)
        assert abs(exact.value - loop.value) <= max(loop.value - loop.ci_low, loop.ci_high - loop.value)

    @pytest.mark.parametrize("n, seed", [(1, 24), (5, 25)])
    def test_diagnose_within_loop_oracle_halfwidth(self, n, seed):
        corpus = corpora.groups(unequal_model_groups(5))
        t_outer = 20_000
        report = diagnose(corpus, n)
        loop = loop_diagnose_variances(corpus, n, seed=seed, t_outer=t_outer)
        for name in ("closest", "random"):
            kept, share = loop[name]
            variance = getattr(report, f"{name}_impostor_stdev") ** 2
            assert abs(variance - kept.mean()) <= Z99 * kept.std(ddof=1) / math.sqrt(kept.size), name
            exact_share = getattr(report, f"{name}_excluded_share")
            assert abs(exact_share - share) <= Z99 * math.sqrt(share * (1 - share) / t_outer), name


@st.composite
def half_grid_corpora(draw):
    """``{target: {impostor: scores}}`` of 1-4 targets with 1-6 pairs of 1-4
    scores on a half-integer grid: sums are exact, so equal means tie."""
    return {
        f"t{t}": {
            f"i{j}": draw(st.lists(st.integers(-4, 4).map(lambda v: v / 2), min_size=1, max_size=4))
            for j in range(draw(st.integers(1, 6)))
        }
        for t in range(draw(st.integers(1, 4)))
    }


TAUS = st.one_of(st.integers(-10, 10).map(lambda v: v / 4), st.sampled_from([-math.inf, math.inf]))


class TestExactProperties:
    @settings(max_examples=150, deadline=None)
    @given(groups=half_grid_corpora(), tau=TAUS, n=st.integers(1, 6))
    def test_matches_comb_oracle(self, groups, tau, n):
        corpus = corpora.groups(groups)
        n = min(n, int(corpus.pairs_per_target.min()))
        est = estimate_pfa_worst_case(corpus, tau, n)
        assert abs(est.value - comb_worst_case(groups, tau, n)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(groups=half_grid_corpora(), tau=TAUS, n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_row_order_invariant(self, groups, tau, n, seed):
        rows = [(t, i, s) for t, pairs in groups.items() for i, scores in pairs.items() for s in scores]
        shuffled = random.Random(seed).sample(rows, len(rows))
        targets, impostors = sorted(groups), sorted({i for _, i, _ in rows})
        corpus = PackedCorpus.from_codes(
            targets,
            impostors,
            np.array([targets.index(t) for t, _, _ in shuffled]),
            np.array([impostors.index(i) for _, i, _ in shuffled]),
            np.ones(len(shuffled), dtype=np.int64),
            np.array([s for _, _, s in shuffled]),
        )
        n = min(n, int(corpus.pairs_per_target.min()))
        ordered = corpora.groups(groups)
        assert estimate_pfa_worst_case(corpus, tau, n) == estimate_pfa_worst_case(ordered, tau, n)

    @settings(max_examples=100, deadline=None)
    @given(groups=half_grid_corpora(), taus=st.lists(TAUS, min_size=2, max_size=5), n=st.integers(1, 6))
    def test_non_increasing_in_tau(self, groups, taus, n):
        corpus = corpora.groups(groups)
        n = min(n, int(corpus.pairs_per_target.min()))
        values = [estimate_pfa_worst_case(corpus, tau, n).value for tau in sorted(taus)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @settings(max_examples=150, deadline=None)
    @given(groups=half_grid_corpora(), tau=TAUS)
    def test_non_decreasing_in_n_where_exceedance_falls_with_rank(self, groups, tau):
        # a larger N moves selection weight towards lower ranks, so it can
        # only raise the rate where lower ranks exceed tau no less often
        corpus = corpora.groups(groups)
        order = np.lexsort((corpus.pair_rank, corpus.pair_target))
        fraction, target = corpus.pair_exceed_fraction(tau)[order], corpus.pair_target[order]
        assume(not np.any((fraction[1:] > fraction[:-1]) & (target[1:] == target[:-1])))
        sizes = range(1, int(corpus.pairs_per_target.min()) + 1)
        values = [estimate_pfa_worst_case(corpus, tau, n).value for n in sizes]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(groups=half_grid_corpora(), tau=TAUS)
    def test_closest_of_one_is_zero_effort(self, groups, tau):
        corpus = corpora.groups(groups)
        worst = estimate_pfa_worst_case(corpus, tau, 1)
        assert abs(worst.value - loop_zero_effort(corpus, tau)) <= 1e-12
