import math

import numpy as np
import pytest

from wcfar.errors import NumericError
from wcfar.inference import (
    PosteriorFactors,
    e_step,
    elbo,
    fit,
    m_step,
    moment_init,
    update_q_lambda,
    update_q_m,
    update_q_mu,
    update_q_sigma,
    VARIANCE_FLOOR,
)
from wcfar.model import Hyperparameters
from wcfar.streams import RngStream
from wcfar.synthetic import SyntheticSpec, model_blocks

import corpora
from oracles import importance_log_evidence, quadrature_posterior

H = Hyperparameters(1.0, 2.0, 3.0, 2.0, 2.0, 1.0)
THETA_FIELDS = ("mu0", "sigma0_sq", "a_sigma", "b_sigma", "alpha_lambda", "beta_lambda")


def packed_single_target(pairs):
    # zero-padded ids, so that id order keeps the order of `pairs`
    return corpora.groups({"t": {f"i{k:04d}": p for k, p in enumerate(pairs)}})


def empty_packed(n_targets=1):
    return corpora.groups({f"t{k}": {} for k in range(n_targets)})


def point_mass_gamma(value, concentration=1e12):
    """Gamma factor parameters whose mean is exactly `value` with ~zero spread."""
    return concentration, concentration / value


def small_corpus(seed=2, t=30, n=8, l=6, theta=None):
    spec = SyntheticSpec(
        theta=theta or Hyperparameters(0.3, 0.8, 5.0, 4.0, 3.0, 3.0),
        t_targets=t,
        n_impostors_per_target=n,
        l_scores_per_pair=l,
        seed=seed,
    )
    return corpora.pack(model_blocks(spec))


def rel_delta(a: Hyperparameters, b: Hyperparameters) -> float:
    return max(abs(getattr(b, f) / getattr(a, f) - 1.0) for f in THETA_FIELDS)


class TestPairMeanUpdate:
    def test_conjugate_formula(self):
        data = packed_single_target([[1.0, 3.0]])
        q = PosteriorFactors.from_prior(H, data)
        q.m_mean = np.array([0.0])
        q.m_var = np.array([1e-30])
        q.lam_shape, q.lam_rate = map(np.atleast_1d, point_mass_gamma(1.0))
        update_q_mu(q, data, H)
        assert q.pair_mean[0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_prior_dominates_for_large_lam(self):
        data = packed_single_target([[1.0, 3.0]])
        q = PosteriorFactors.from_prior(H, data)
        q.m_mean = np.array([0.25])
        q.lam_shape, q.lam_rate = np.array([1e14]), np.array([1.0])
        update_q_mu(q, data, H)
        assert q.pair_mean[0] == pytest.approx(0.25, abs=1e-10)
        assert q.pair_var[0] < 1e-10

    def test_data_dominates_for_many_scores(self):
        scores = RngStream(1).generator().normal(2.5, 1.0, size=200_000)
        data = packed_single_target([scores])
        q = PosteriorFactors.from_prior(H, data)
        q.m_mean = np.array([0.0])
        q.lam_shape, q.lam_rate = map(np.atleast_1d, point_mass_gamma(1.0))
        update_q_mu(q, data, H)
        assert q.pair_mean[0] == pytest.approx(float(scores.mean()), rel=1e-4)


class TestTargetLocationUpdate:
    def test_no_pairs_returns_prior(self):
        data = empty_packed()
        q = PosteriorFactors.from_prior(H, data)
        # move the factor away first so the update must restore the prior
        q.m_mean, q.m_var = np.array([5.0]), np.array([0.1])
        update_q_m(q, data, H)
        assert q.m_mean[0] == pytest.approx(H.mu0)
        assert q.m_var[0] == pytest.approx(H.sigma0_sq)

    def test_flat_prior_tracks_pair_mean(self):
        h = Hyperparameters(0.0, 1e12, 3.0, 2.0, 2.0, 1.0)
        data = packed_single_target([[0.5, 1.5]])
        q = PosteriorFactors.from_prior(h, data)
        q.pair_mean = np.array([0.8])
        q.pair_var = np.array([1e-30])
        update_q_m(q, data, h)
        assert q.m_mean[0] == pytest.approx(0.8, abs=1e-9)


class TestPrecisionUpdate:
    def test_no_pairs_returns_prior(self):
        data = empty_packed()
        q = PosteriorFactors.from_prior(H, data)
        q.lam_shape, q.lam_rate = np.array([9.0]), np.array([9.0])
        update_q_lambda(q, data, H)
        assert q.lam_shape[0] == pytest.approx(H.alpha_lambda)
        assert q.lam_rate[0] == pytest.approx(H.beta_lambda)

    def test_no_penalty_when_pair_mean_matches(self):
        data = packed_single_target([[0.7, 0.7]])
        q = PosteriorFactors.from_prior(H, data)
        q.m_mean, q.m_var = np.array([0.7]), np.array([1e-30])
        q.pair_mean, q.pair_var = np.array([0.7]), np.array([1e-30])
        update_q_lambda(q, data, H)
        assert q.lam_shape[0] == pytest.approx(H.alpha_lambda + 0.5)
        assert q.lam_rate[0] == pytest.approx(H.beta_lambda, rel=1e-9)


class TestSharedVarianceUpdate:
    def test_point_mass_substitution(self):
        s, mu, m, lam = 2.0, 0.5, 0.2, 3.0
        data = packed_single_target([[s]])
        q = PosteriorFactors.from_prior(H, data)
        q.pair_mean, q.pair_var = np.array([mu]), np.array([1e-30])
        q.m_mean, q.m_var = np.array([m]), np.array([1e-30])
        q.lam_shape, q.lam_rate = map(np.atleast_1d, point_mass_gamma(lam))
        update_q_sigma(q, data, H)
        assert q.sigma_shape[0] == pytest.approx(H.a_sigma + 1.0)
        expected_scale = H.b_sigma + 0.5 * (s - mu) ** 2 + 0.5 * lam * (mu - m) ** 2
        assert q.sigma_scale[0] == pytest.approx(expected_scale, rel=1e-9)

    def test_no_pairs_returns_prior(self):
        data = empty_packed()
        q = PosteriorFactors.from_prior(H, data)
        q.sigma_shape, q.sigma_scale = np.array([50.0]), np.array([1.0])
        update_q_sigma(q, data, H)
        assert q.sigma_shape[0] == pytest.approx(H.a_sigma)
        assert q.sigma_scale[0] == pytest.approx(H.b_sigma)


class TestElbo:
    def test_zero_for_prior_posterior_without_data(self):
        data = empty_packed(n_targets=3)
        q = PosteriorFactors.from_prior(H, data)
        assert elbo(data, q, H) == pytest.approx(0.0, abs=1e-10)

    def test_kl_penalty_for_moved_factor(self):
        data = empty_packed()
        q = PosteriorFactors.from_prior(H, data)
        q.m_mean = q.m_mean + 1.0
        # -KL between the shifted and original Gaussian: -(1/2) * 1/sigma0_sq
        assert elbo(data, q, H) == pytest.approx(-0.5 / H.sigma0_sq, rel=1e-12)

    def test_each_factor_update_is_coordinate_ascent(self):
        data = small_corpus(seed=7, t=10, n=4, l=5)
        rng = RngStream(8).generator()
        for update in (update_q_mu, update_q_m, update_q_lambda, update_q_sigma):
            q = PosteriorFactors.from_prior(H, data)
            # randomly perturb all factors to a generic valid state
            q.m_mean = rng.normal(0, 1, data.n_targets)
            q.m_var = rng.uniform(0.1, 2.0, data.n_targets)
            q.lam_shape = rng.uniform(0.5, 5.0, data.n_targets)
            q.lam_rate = rng.uniform(0.5, 5.0, data.n_targets)
            q.sigma_shape = rng.uniform(1.5, 6.0, data.n_targets)
            q.sigma_scale = rng.uniform(0.5, 5.0, data.n_targets)
            q.pair_mean = rng.normal(0, 1, data.n_pairs)
            q.pair_var = rng.uniform(0.1, 2.0, data.n_pairs)
            before = elbo(data, q, H)
            update(q, data, H)
            after = elbo(data, q, H)
            assert after >= before - 1e-9, update.__name__

    def test_monotone_over_full_fit(self):
        data = small_corpus(seed=9)
        report = fit(data, max_iter=60, tol=0.0)
        steps = np.diff(report.elbo_trace)
        assert steps.min() > -1e-8

    def test_bounded_by_importance_sampled_evidence(self):
        scores = [0.3, 1.1]
        data = packed_single_target([scores])
        h = Hyperparameters(0.5, 1.0, 3.0, 2.0, 2.0, 2.0)
        q = PosteriorFactors.from_prior(h, data)
        for _ in range(500):
            e_step(q, data, h)
        bound = elbo(data, q, h)
        log_evidence, rel_se = importance_log_evidence(scores, h, n_draws=2_000_000, seed=11)
        assert bound <= log_evidence + 3.0 * rel_se
        # and the bound should be reasonably tight on such a small instance
        assert bound >= log_evidence - 0.5


class TestQuadratureAgreement:
    CASES = [
        (
            Hyperparameters(1.0, 1.0, 6.0, 5.0, 16.0, 8.0),
            [[1.2, 0.8, 1.0], [2.0, 1.6, 1.9]],
        ),
        (
            Hyperparameters(1.0, 1.0, 8.0, 7.0, 12.0, 6.0),
            [[0.4, 1.1, 0.9], [1.5, 2.1]],
        ),
    ]

    @pytest.mark.parametrize("h,pairs", CASES)
    def test_posterior_means_within_two_percent(self, h, pairs):
        data = packed_single_target(pairs)
        q = PosteriorFactors.from_prior(h, data)
        for _ in range(4000):
            previous = np.concatenate([q.m_mean, q.pair_mean, q.sigma_scale, q.lam_rate])
            e_step(q, data, h)
            current = np.concatenate([q.m_mean, q.pair_mean, q.sigma_scale, q.lam_rate])
            if np.max(np.abs(current - previous)) < 1e-14:
                break
        oracle = quadrature_posterior(pairs, h, n=160)
        assert q.m_mean[0] == pytest.approx(oracle["m"], rel=0.02)
        assert q.lam_mean[0] == pytest.approx(oracle["lam"], rel=0.02)
        assert q.inv_sigma[0] == pytest.approx(oracle["inv_sigma"], rel=0.02)
        sigma_mean = q.sigma_scale[0] / (q.sigma_shape[0] - 1.0)
        assert sigma_mean == pytest.approx(oracle["sigma_sq"], rel=0.02)
        assert np.allclose(q.pair_mean, oracle["pair_means"], rtol=0.02)


def target_factors(t, m_mean, m_var, sigma, lam) -> PosteriorFactors:
    """`t` identical target factors with no pairs; `sigma` is (shape, scale) and `lam` is (shape, rate)."""
    return PosteriorFactors(
        m_mean=np.full(t, m_mean),
        m_var=np.full(t, m_var),
        sigma_shape=np.full(t, sigma[0]),
        sigma_scale=np.full(t, sigma[1]),
        lam_shape=np.full(t, lam[0]),
        lam_rate=np.full(t, lam[1]),
        pair_mean=np.array([]),
        pair_var=np.array([]),
    )


class TestMStep:
    # sigma (3, 2) gives E[1/sigma_sq] = 1.5 and E[log sigma_sq] = log 2 - digamma(3);
    # lam (2, 1) gives E[lam] = 2 and E[log lam] = digamma(2)
    def test_equal_point_masses_floor_spread(self):
        h = m_step(target_factors(5, 0.7, 0.0, sigma=(3.0, 2.0), lam=(2.0, 1.0)))
        assert h.mu0 == pytest.approx(0.7)
        assert h.sigma0_sq == VARIANCE_FLOOR

    def test_analytic_moment_round_trip(self):
        theta = Hyperparameters(0.3, 1.2, 5.0, 4.0, 3.0, 2.0)
        q = target_factors(
            7,
            theta.mu0,
            theta.sigma0_sq,
            sigma=(theta.a_sigma, theta.b_sigma),
            lam=(theta.alpha_lambda, theta.beta_lambda),
        )
        recovered = m_step(q)
        assert rel_delta(theta, recovered) < 1e-6

    def test_tiny_posterior_variance_far_from_zero_keeps_its_digits(self):
        # (E[m]^2 + Var[m]) - E[m]^2 at E[m] = 3 loses ~4 of Var[m]'s digits to cancellation
        q = target_factors(4, 3.0, 2e-12, sigma=(3.0, 2.0), lam=(2.0, 1.0))
        assert m_step(q).sigma0_sq == pytest.approx(2e-12, rel=1e-12)


class TestFit:
    def test_deterministic(self):
        data = small_corpus(seed=12)
        a = fit(data)
        b = fit(data)
        assert a.hyperparameters == b.hyperparameters
        assert np.array_equal(a.elbo_trace, b.elbo_trace)

    def test_converges_and_recovers_roughly(self):
        theta = Hyperparameters(0.5, 1.0, 4.0, 3.0, 4.0, 4.0)
        data = small_corpus(seed=14, t=150, n=25, l=12, theta=theta)
        report = fit(data)
        assert report.converged
        h = report.hyperparameters
        assert h.mu0 == pytest.approx(theta.mu0, abs=0.2)
        assert h.alpha_lambda / h.beta_lambda == pytest.approx(1.0, rel=0.25)
        assert h.a_sigma / h.b_sigma == pytest.approx(4.0 / 3.0, rel=0.25)

    def test_respects_explicit_init(self):
        data = small_corpus(seed=14, t=10, n=4, l=4)
        init = Hyperparameters(0.0, 1.0, 3.0, 3.0, 3.0, 3.0)
        report = fit(data, init=init, max_iter=1, tol=0.0)
        assert report.iterations == 1
        assert not report.converged

    def test_degenerate_corpus_floors_and_survives(self):
        corpus = corpora.groups(
            {f"t{i}": {f"i{j}": [1.0, 1.0, 1.0] for j in range(3)} for i in range(4)}
        )
        # identical scores have no finite optimum; the fit must terminate
        # cleanly with the location recovered, all scales at their floors,
        # and the bound still monotone
        report = fit(corpus, max_iter=200)
        h = report.hyperparameters
        assert h.mu0 == pytest.approx(1.0, abs=1e-9)
        assert h.sigma0_sq <= 1e-9
        assert h.b_sigma / (h.a_sigma - 1.0) <= 1e-6
        assert np.diff(report.elbo_trace).min() > -1e-8

    def test_idempotent_at_fixpoint(self):
        # the EM loop of `fit`, run here to keep its factors
        data = small_corpus(seed=2)
        h = moment_init(data)
        q = PosteriorFactors.from_prior(h, data)
        for _ in range(20_000):
            e_step(q, data, h)
            h_next = m_step(q)
            if rel_delta(h, h_next) < 1e-12:
                h = h_next
                break
            h = h_next
        else:
            pytest.fail("no parameter fixpoint reached")
        e_step(q, data, h)
        assert rel_delta(h, m_step(q)) < 1e-10

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="cannot fit: the corpus has no targets"):
            fit(empty_packed(0))

    @pytest.mark.parametrize(
        "groups, reason",
        [
            ({"t": {"a": [0.1, 0.4], "b": [0.2, 0.7]}}, "one target"),
            ({"t1": {"a": [0.1], "b": [0.4]}, "t2": {"a": [0.2], "b": [0.7]}}, "single score"),
        ],
        ids=["one-target", "single-scores"],
    )
    def test_non_identifiable_corpus_rejected(self, groups, reason, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("EM ran on a corpus that does not identify the model")

        monkeypatch.setattr("wcfar.inference.e_step", no_sweep)
        with pytest.raises(ValueError, match=f"cannot fit: .*{reason}"):
            fit(corpora.groups(groups))

    @pytest.mark.parametrize(
        "settings", [{"max_iter": 0}, {"max_iter": -5}, *({"tol": t} for t in (math.nan, -1e-7, math.inf, 1e300, 1))],
        ids=["max_iter-0", "max_iter-negative", "tol-nan", "tol-negative", "tol-inf", "tol-1e300", "tol-1"],
    )
    def test_iteration_settings_that_cannot_work_are_refused(self, settings, monkeypatch):
        # max_iter 0 returned the moment start as a fit; a tol < 0 or NaN ran to the cap, one >= 1 claimed convergence
        monkeypatch.setattr("wcfar.inference.moment_init", lambda data: pytest.fail("fit started"))
        with pytest.raises(ValueError, match=r"max_iter must be >= 1 and tol in \[0, 1\)"):
            fit(small_corpus(seed=17, t=4, n=3, l=3), **settings)

    def test_numeric_errors_carry_iteration(self):
        data = small_corpus(seed=15, t=6, n=3, l=3)
        bad = PosteriorFactors.from_prior(H, data)
        bad.lam_rate = np.full(data.n_targets, np.nan)
        with pytest.raises(NumericError):
            bad.validate()

    def test_moment_init_is_valid_and_close(self):
        theta = Hyperparameters(0.5, 1.0, 4.0, 3.0, 4.0, 4.0)
        data = small_corpus(seed=16, t=200, n=30, l=10, theta=theta)
        h0 = moment_init(data)
        assert h0.mu0 == pytest.approx(theta.mu0, abs=0.3)
        assert 0.1 < h0.sigma0_sq < 10.0
