import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from wcfar import model
from wcfar.model import Hyperparameters, _sample_targets, gaussian_tail, predict_pfa
from wcfar.streams import RngStream
from wcfar.synthetic import SyntheticSpec, model_blocks

import corpora
from oracles import (
    closest_of_n_quadrature,
    loop_predict_pfa_closed_form,
    loop_predict_pfa_sampling,
    marginal_score_samples,
)
from test_estimators import joint_halfwidth

BASE = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)


def predict(h, tau, n, *, seed, t_outer, scores_per_pair=math.inf):
    """`predict_pfa`'s one estimate at a single N."""
    [est] = predict_pfa(h, tau, [n], seed=seed, t_outer=t_outer, scores_per_pair=scores_per_pair)
    return est


class TestHyperparameters:
    def test_json_round_trip(self):
        h = Hyperparameters(0.5, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert Hyperparameters.from_json(json.loads(json.dumps(h.to_json()))) == h

    def test_json_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            Hyperparameters.from_json({"mu0": 0.0})

    def test_json_not_an_object(self):
        with pytest.raises(ValueError, match="must be an object, got list"):
            Hyperparameters.from_json([])

    @pytest.mark.parametrize(
        "field", ["sigma0_sq", "a_sigma", "b_sigma", "alpha_lambda", "beta_lambda"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(ValueError):
            Hyperparameters(**{**BASE.to_json(), field: 0.0})

    def test_replace(self):
        assert BASE.replace(alpha_lambda=2.0).alpha_lambda == 2.0
        with pytest.raises(ValueError, match="unknown"):
            BASE.replace(gamma=1.0)

    def test_draw_validation(self):
        # Gamma(0.002) draws underflow to 0 about once in five; no target may
        # get lam = 0 or sigma_sq = 1 / 0
        for field in ("alpha_lambda", "a_sigma"):
            h = BASE.replace(**{field: 0.002})
            with pytest.raises(ValueError, match="lam and sigma_sq must be positive"):
                corpora.pack(model_blocks(model_spec(h, t=200, n=2, l=2, seed=1)))


# a shape and rate this large pin a gamma-family draw to its mean within ~1e-4
PINNED = 1e8


def pinned(lam: float, sigma_sq: float) -> Hyperparameters:
    """A prior whose draws of lam and sigma_sq sit at the given values."""
    return Hyperparameters(0.0, 1.0, PINNED, PINNED * sigma_sq, PINNED, PINNED / lam)


def model_spec(h: Hyperparameters, t: int, n: int, l: int, seed: int) -> SyntheticSpec:
    return SyntheticSpec(theta=h, t_targets=t, n_impostors_per_target=n, l_scores_per_pair=l, seed=seed)


class TestHierarchySampling:
    """The target draws every simulation shares, and `model_blocks`'s pairs and scores."""

    def test_tiny_prior_variance_pins_location(self):
        h = BASE.replace(sigma0_sq=1e-30)
        m, _, _ = _sample_targets(h, None, RngStream(1).generator())
        assert m == pytest.approx(0.0, abs=1e-12)

    def test_target_moments(self):
        ms, lams, _ = _sample_targets(BASE, 200_000, RngStream(2).generator())
        assert ms.mean() == pytest.approx(BASE.mu0, abs=3.0 / math.sqrt(ms.size))
        assert lams.mean() == pytest.approx(BASE.alpha_lambda / BASE.beta_lambda, rel=0.01)

    def test_pair_concentrates_for_large_lam(self):
        # Pinned draws share their standard gamma and normal variates, so the
        # scores of the two corpora differ only by the pair means' offsets from
        # m, of sd sqrt(sigma_sq / lam): 1e-6 at lam = 1e12, 1e-12 at lam = 1e24
        a = corpora.pack(model_blocks(model_spec(pinned(1e12, 1.0), t=1, n=1000, l=2, seed=3)))
        b = corpora.pack(model_blocks(model_spec(pinned(1e24, 1.0), t=1, n=1000, l=2, seed=3)))
        assert np.abs(a.scores - b.scores).max() <= 1e-4

    def test_pair_spread(self):
        # pair means have variance sigma_sq / lam + sigma_sq / L = 1 + 4 / L around m
        corpus = corpora.pack(model_blocks(model_spec(pinned(4.0, 4.0), t=1, n=100_000, l=4, seed=4)))
        latent_var = corpus.pair_means().var() - corpus.pair_variances().mean() / 4
        assert math.sqrt(latent_var) == pytest.approx(1.0, rel=0.02)

    def test_scores_spread_and_degenerate_variance(self):
        corpus = corpora.pack(model_blocks(model_spec(pinned(1.0, 1e-30), t=1, n=1, l=50, seed=5)))
        assert np.allclose(corpus.scores, corpus.scores[0])
        corpus = corpora.pack(model_blocks(model_spec(pinned(1.0, 2.5), t=1, n=1, l=100_000, seed=6)))
        assert corpus.scores.var() == pytest.approx(2.5, rel=0.05)

    def test_scores_deterministic(self):
        # each target draws from its own stream: adding targets leaves the first ones alone
        few = corpora.pack(model_blocks(model_spec(BASE, t=2, n=3, l=4, seed=7)))
        more = corpora.pack(model_blocks(model_spec(BASE, t=5, n=3, l=4, seed=7)))
        assert np.array_equal(few.scores, more.scores[: few.n_scores])

    def test_scores_count_validation(self):
        with pytest.raises(ValueError):
            model_spec(BASE, t=1, n=1, l=0, seed=1)


class TestPredictors:
    def test_sampling_saturates_at_low_threshold(self):
        est = predict(BASE, -math.inf, 3, seed=11, t_outer=200, scores_per_pair=10)
        assert est.value == 1.0

    def test_closed_form_saturates(self):
        assert predict(BASE, -math.inf, 3, seed=11, t_outer=200).value == 1.0
        assert predict(BASE, math.inf, 3, seed=11, t_outer=200).value == 0.0

    def test_degenerate_limit_recovers_gaussian_tail(self):
        # prior mass concentrated at m=0, sigma_sq=1, lam huge: scores are
        # standard normal, so the rate at tau=1 is the upper tail mass
        h = Hyperparameters(
            mu0=0.0,
            sigma0_sq=1e-18,
            a_sigma=1e8,
            b_sigma=1e8,
            alpha_lambda=1e12,
            beta_lambda=1e6,
        )
        est = predict(h, 1.0, 1, seed=12, t_outer=2000, scores_per_pair=324)
        assert est.value == pytest.approx(float(ndtr(-1.0)), abs=0.005)

    @pytest.mark.filterwarnings("error")
    def test_closed_form_injected_draws(self):
        # winning latent mean 1 with unit variance: half the mass above tau = 1
        tail = gaussian_tail(np.array([1.0]), np.array([1.0]), 1.0)
        assert tail[0] == pytest.approx(0.5, abs=1e-12)
        # a single score per set leaves no residual: the score is its mean,
        # strictly above tau or not
        tail = gaussian_tail(np.array([1.5, 0.5, 1.0]), 0.0, 1.0)
        assert tail.tolist() == [1.0, 0.0, 0.0]

    def test_sampling_injection_requires_scores(self):
        with pytest.raises(ValueError, match="scores_per_pair"):
            predict_pfa(BASE, 1.0, [2], seed=1, t_outer=1, scores_per_pair=0)

    @pytest.mark.parametrize("l", [math.inf, 3])
    def test_a_list_of_n_is_one_call_per_n(self, l):
        ns = [5, 1, 10**9, 64, 1]
        together = predict_pfa(BASE, 1.5, ns, seed=19, t_outer=300, scores_per_pair=l)
        apart = [predict(BASE, 1.5, n, seed=19, t_outer=300, scores_per_pair=l) for n in ns]
        # repr round-trips every float, so equal reprs are equal bits
        assert [repr(est) for est in together] == [repr(est) for est in apart]

    @pytest.mark.parametrize("ns,message", [
        ([1, 0, 5], "n_impostors must be >= 1, got 0"),
        ([2, 3, -3], "n_impostors must be >= 1, got -3"),
        ([1, 10**400], "n_impostors must be at most"),
    ], ids=["zero", "negative", "past-the-float-range"])
    def test_a_bad_n_anywhere_is_refused_before_any_draw(self, monkeypatch, ns, message):
        def no_draw(seed):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(model, "RngStream", no_draw)
        for l in (math.inf, 3):
            with pytest.raises(ValueError, match=message):
                predict_pfa(BASE, 1.5, ns, seed=1, scores_per_pair=l)

    @staticmethod
    def monotone_in_n(l) -> bool:
        ns = [1, 2, 4, 8, 16, 64, 10**6, 10**9]
        values = [est.value for est in predict_pfa(BASE, 1.5, ns, seed=13, t_outer=500, scores_per_pair=l)]
        # every N reuses the same uniforms, and Phi^-1(U^(1/N)) rises with N
        return all(a <= b for a, b in zip(values, values[1:]))

    @staticmethod
    def non_increasing_in_tau(l) -> bool:
        taus = (-2.0, 0.0, 1.0, 2.5)
        values = [predict(BASE, tau, 5, seed=14, t_outer=400, scores_per_pair=l).value for tau in taus]
        return all(a >= b for a, b in zip(values, values[1:]))

    def test_closed_form_pointwise_monotone_in_n(self):
        assert self.monotone_in_n(math.inf)

    @pytest.mark.parametrize("l", [1, 2, 324])
    def test_sampling_pointwise_monotone_in_n(self, l):
        assert self.monotone_in_n(l)

    def test_closed_form_non_increasing_in_tau(self):
        assert self.non_increasing_in_tau(math.inf)

    @pytest.mark.parametrize("l", [1, 2, 324])
    def test_sampling_non_increasing_in_tau(self, l):
        assert self.non_increasing_in_tau(l)

    def test_predictors_agree_small_scale(self):
        # a finite L and L = inf share every draw, so their gap is the finite-L
        # selection gap, whose expectation the quadrature gives
        ns = [1, 10]
        sampled = predict_pfa(BASE, 1.0, ns, seed=15, t_outer=3000, scores_per_pair=324)
        closed = predict_pfa(BASE, 1.0, ns, seed=15, t_outer=3000)
        for n, s, c in zip(ns, sampled, closed):
            q = closest_of_n_quadrature
            gap = q(BASE, 1.0, n, scores_per_pair=324) - q(BASE, 1.0, n)
            assert abs(s.value - c.value - gap) <= 1e-4

    def test_closed_form_n1_matches_marginal_rate(self):
        closed = predict(BASE, 1.0, 1, seed=16, t_outer=20_000)
        draws = marginal_score_samples(BASE, 200_000, RngStream(17))
        rate = float(np.mean(draws > 1.0))
        se_marginal = math.sqrt(rate * (1 - rate) / draws.size)
        se_closed = (closed.ci_high - closed.ci_low) / 2.0
        assert abs(closed.value - rate) <= se_closed + 3.0 * se_marginal

    def test_deterministic(self):
        for l in (math.inf, 9):
            first = predict_pfa(BASE, 0.5, [7], seed=18, t_outer=300, scores_per_pair=l)
            assert first == predict_pfa(BASE, 0.5, [7], seed=18, t_outer=300, scores_per_pair=l)


def _halfwidth(est) -> float:
    return max(est.value - est.ci_low, est.ci_high - est.value)


class TestPredictorOracles:
    @pytest.mark.parametrize("n", [1, 1000, 10**9])
    def test_closed_form_matches_quadrature(self, n):
        est = predict(BASE, 1.5, n, seed=31, t_outer=20_000)
        assert abs(est.value - closest_of_n_quadrature(BASE, 1.5, n)) <= 2.0 * _halfwidth(est)

    @pytest.mark.parametrize("n", [1, 1000, 10**9])
    def test_sampling_matches_quadrature(self, n):
        # two scores per set keep selection by sample mean well apart from
        # selection by latent mean, and the winner's residual variance
        # sigma^2 (1 - 1/L) well apart from sigma^2
        est = predict(BASE, 1.5, n, seed=31, t_outer=20_000, scores_per_pair=2)
        expected = closest_of_n_quadrature(BASE, 1.5, n, scores_per_pair=2)
        assert abs(est.value - expected) <= 2.0 * _halfwidth(est)

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_closed_form_matches_loop(self, n):
        fast = predict(BASE, 1.5, n, seed=32, t_outer=4000)
        loop = loop_predict_pfa_closed_form(BASE, 1.5, n, seed=32, t_outer=4000)
        assert abs(fast.value - loop.value) <= joint_halfwidth(fast, loop)

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_sampling_matches_loop(self, n):
        fast = predict(BASE, 1.5, n, seed=32, t_outer=4000, scores_per_pair=2)
        loop = loop_predict_pfa_sampling(BASE, 1.5, n, seed=32, t_outer=4000, scores_per_pair=2)
        assert abs(fast.value - loop.value) <= joint_halfwidth(fast, loop)

    @staticmethod
    def peak_bytes(l) -> int:
        _, peak = corpora.traced_peak(predict_pfa, BASE, 1.5, [10**9], seed=33, t_outer=10_000, scores_per_pair=l)
        return peak

    def test_closed_form_memory_independent_of_n(self):
        assert self.peak_bytes(math.inf) < 16 * 2**20

    def test_sampling_memory_independent_of_n_and_l(self):
        # no candidate and no score is materialised
        assert self.peak_bytes(10**9) < 16 * 2**20


# priors with shapes >= 0.5, whose gamma draws never underflow
SHAPES, SCALES = st.floats(0.5, 20.0), st.floats(0.1, 10.0)
PRIORS = st.builds(Hyperparameters, st.floats(-3.0, 3.0), SCALES, SHAPES, SCALES, SHAPES, SCALES)


class TestPredictorProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        h=PRIORS,
        taus=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=4),
        ns=st.lists(st.integers(1, 10**9), min_size=2, max_size=4),
        seed=st.integers(0, 2**64 - 1),
        l=st.integers(1, 1000),
    )
    def test_non_decreasing_in_n_non_increasing_in_tau(self, h, taus, ns, seed, l):
        # the winner's mean rises with N on shared draws, and each tail falls with tau
        for per_pair in (math.inf, l):
            grid = [
                [est.value for est in predict_pfa(h, tau, sorted(ns), seed=seed, t_outer=50, scores_per_pair=per_pair)]
                for tau in sorted(taus)
            ]
            assert all(a <= b for row in grid for a, b in zip(row, row[1:]))
            assert all(a >= b for low, high in zip(grid, grid[1:]) for a, b in zip(low, high))


class TestMarginalSamples:
    def test_centering(self):
        h = BASE.replace(mu0=2.5)
        draws = marginal_score_samples(h, 500_000, RngStream(19))
        assert draws.mean() == pytest.approx(2.5, abs=0.02)

    def test_symmetry(self):
        draws = marginal_score_samples(
            Hyperparameters(0.0, 1.0, 5.0, 4.0, 4.0, 4.0), 1_000_000, RngStream(20)
        )
        centered = draws - draws.mean()
        skew = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        assert abs(skew) < 3.0 * math.sqrt(6.0 / draws.size) + 0.005

    def test_heavier_than_gaussian_tails(self):
        h = Hyperparameters(0.0, 1.0, 5.0, 4.0, 4.0, 4.0)
        draws = marginal_score_samples(h, 10_000_000, RngStream(21))
        centered = draws - draws.mean()
        excess_kurtosis = np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0
        assert excess_kurtosis > 0.1

    def test_count_validation(self):
        with pytest.raises(ValueError):
            marginal_score_samples(BASE, 0, RngStream(1))
