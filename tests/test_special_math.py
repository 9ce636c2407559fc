import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wcfar import special_math
from wcfar.errors import NumericError
from wcfar.model import Hyperparameters, _sample_targets, gaussian_tail, predict_pfa
from wcfar.special_math import (
    digamma,
    gamma_shape,
    gammaln,
    ndtr,
    ndtri,
    trigamma,
)
from wcfar.streams import RngStream

from oracles import (
    gamma_fit_objective,
    gamma_moments,
    gamma_objective_grid,
    inv_gamma_fit_objective,
    inv_gamma_moments,
    inv_gamma_objective_grid,
)

EULER_GAMMA = 0.5772156649015328606


class TestParams:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (np.nan, 1.0)])
    def test_gamma_rejects_bad_params(self, alpha, beta):
        # the model's gamma prior, lam ~ Gamma(alpha_lambda, beta_lambda)
        with pytest.raises(ValueError):
            Hyperparameters(0.0, 1.0, 4.0, 3.0, alpha, beta)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (np.inf, 1.0)])
    def test_inv_gamma_rejects_bad_params(self, a, b):
        # the model's inverse-gamma prior, sigma_sq ~ InvGamma(a_sigma, b_sigma)
        with pytest.raises(ValueError):
            Hyperparameters(0.0, 1.0, a, b, 4.0, 4.0)

    @pytest.mark.parametrize("mean,var", [(0.0, 0.0), (0.0, -1.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_gaussian_rejects_bad_params(self, mean, var):
        # the model's one Gaussian prior, m ~ Normal(mu0, sigma0_sq)
        with pytest.raises(ValueError):
            Hyperparameters(mean, var, 4.0, 3.0, 4.0, 4.0)


class TestNormalCdf:
    """`gaussian_tail(mu, var, tau)`, the closed-form predictor's P(score > tau), is 1 - CDF at tau."""

    def test_symmetry_at_zero(self):
        assert gaussian_tail(0.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("mean,var", [(0.0, 1.0), (-3.2, 0.25), (10.0, 7.0)])
    def test_half_at_mean(self, mean, var):
        assert gaussian_tail(mean, var, mean) == pytest.approx(0.5, abs=1e-15)

    def test_standard_value(self):
        # reference from the exact error-function identity Phi(1) = (1 + erf(1/sqrt 2))/2
        reference = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert reference == pytest.approx(0.8413447460685429, abs=1e-15)
        assert gaussian_tail(0.0, 1.0, -1.0) == pytest.approx(reference, abs=1e-12)

    def test_infinite_limits(self):
        assert gaussian_tail(2.0, 3.0, np.inf) == 0.0
        assert gaussian_tail(2.0, 3.0, -np.inf) == 1.0

    def test_rejects_nan(self):
        # a NaN threshold is refused before any tail is evaluated
        h = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)
        with pytest.raises(ValueError, match="NaN"):
            predict_pfa(h, np.nan, [1], seed=1)

    @settings(max_examples=300)
    @given(
        x=st.floats(-50, 50),
        dx=st.floats(0, 10),
        mean=st.floats(-10, 10),
        var=st.floats(1e-3, 100),
    )
    def test_monotone_and_bounded(self, x, dx, mean, var):
        lo, hi = gaussian_tail(mean, var, x + dx), gaussian_tail(mean, var, x)
        assert 0.0 <= lo <= hi <= 1.0

    def test_bounded_on_large_random_batch(self):
        rng = RngStream(7).generator()
        x = rng.normal(0.0, 50.0, size=100_000)
        values = gaussian_tail(x, 4.0, 1.0)  # rises with the mean as the CDF at 1 falls
        assert np.all((values >= 0.0) & (values <= 1.0))
        order = np.argsort(x)
        assert np.all(np.diff(values[order]) >= 0.0)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-14)

    def test_recurrence_at_two(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, rel=1e-14)

    def test_half_closed_form(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(ValueError):
            digamma(x)

    @settings(max_examples=300)
    @given(x=st.floats(0.1, 100.0))
    def test_recurrence_property(self, x):
        assert digamma(x + 1.0) - digamma(x) - 1.0 / x == pytest.approx(0.0, abs=1e-12)


def relative_error(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


class TestKernelsAgainstScipy:
    """The numpy kernels against `scipy.special`, which the package does not import."""

    # dense on [0.5, 12], which holds the roots of gammaln and digamma and the switch to the series at 10
    X = np.concatenate([
        np.geomspace(1e-8, 1e6, 200_001),
        np.linspace(0.5, 12.0, 100_001),
        [1.0, 2.0, 1.4616321449683623, 9.999999999999998, 10.0],
    ])

    def test_ndtri(self):
        p = np.concatenate([
            np.geomspace(1e-300, 0.5, 200_001),
            np.linspace(0.0, 1.0, 100_001)[1:-1],
            1.0 - np.geomspace(1e-16, 0.5, 100_001),
            [0.075, 0.925, 0.5 - 1e-17, 0.5 + 1e-16],
        ])
        want = special.ndtri(p)
        nonzero = want != 0
        assert relative_error(ndtri(p)[nonzero], want[nonzero]) <= 1e-14
        assert np.all(ndtri(p)[~nonzero] == 0.0)
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
        assert np.array_equal(ndtri(np.array([0.0, 1.0])), [-np.inf, np.inf])

    def test_ndtr(self):
        edges = np.array([0.46875, 4.0]) * math.sqrt(2.0)
        z = np.concatenate([
            np.linspace(-37.0, 8.0, 450_001),
            edges, -edges, np.nextafter(edges, 0), -np.nextafter(edges, 0),
        ])
        want = special.ndtr(z)
        positive = want > 0
        assert relative_error(ndtr(z)[positive], want[positive]) <= 1e-12
        assert ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0
        assert ndtr(0.0) == 0.5 and ndtr(-0.0) == 0.5

    @pytest.mark.parametrize("ours,theirs", [(gammaln, special.gammaln), (digamma, special.digamma)])
    def test_gammaln_and_digamma(self, ours, theirs):
        want = theirs(self.X)
        assert np.max(np.abs(ours(self.X) - want) / np.maximum(1.0, np.abs(want))) <= 1e-13

    def test_trigamma(self):
        assert relative_error(trigamma(self.X), special.polygamma(1, self.X)) <= 1e-14

    @pytest.mark.parametrize("f,x", [(ndtr, 0.3), (ndtri, 0.3), (gammaln, 2.5), (digamma, 2.5), (trigamma, 2.5)])
    def test_scalar_and_array_input(self, f, x):
        assert isinstance(f(x), float)
        grid = np.full((2, 3), x)
        assert f(grid).shape == (2, 3)
        assert np.all(f(grid) == f(x))

    def test_nan_propagates(self):
        assert np.isnan(ndtr(np.nan)) and np.isnan(ndtri(np.nan))
        assert np.isnan(ndtri(np.array([-0.5, 1.5]))).all()


def prior_draws(stream, gamma=(1.0, 1.0), inv_gamma=(1.0, 1.0), size=1_000_000):
    """The model's draws of lam ~ Gamma(shape, rate) and sigma_sq ~ InvGamma(shape, scale)."""
    h = Hyperparameters(0.0, 1.0, *inv_gamma, *gamma)
    _, lam, sigma_sq = _sample_targets(h, size, stream.generator())
    return lam, sigma_sq


class TestSamplers:
    def test_gamma_moments(self):
        draws, _ = prior_draws(RngStream(11), gamma=(3.0, 1.5))
        assert draws.mean() == pytest.approx(2.0, abs=0.02)

    def test_exponential_special_case(self):
        draws, _ = prior_draws(RngStream(12), gamma=(1.0, 1.0))
        assert np.mean(draws > 1.0) == pytest.approx(math.exp(-1.0), abs=0.002)

    def test_gamma_variance(self):
        draws, _ = prior_draws(RngStream(13), gamma=(2.0, 4.0))
        assert draws.var() == pytest.approx(0.125, rel=0.05)

    def test_inv_gamma_mean(self):
        _, draws = prior_draws(RngStream(14), inv_gamma=(4.0, 6.0))
        assert draws.mean() == pytest.approx(2.0, abs=0.02)

    def test_inv_gamma_precision_and_log_moments(self):
        _, draws = prior_draws(RngStream(15), inv_gamma=(4.0, 6.0))
        assert np.mean(1.0 / draws) == pytest.approx(4.0 / 6.0, rel=0.01)
        # E[log x] = log b - psi(a), forward computed
        expected = math.log(6.0) - digamma(4.0)
        assert expected == pytest.approx(0.5356418007962545, abs=1e-12)
        assert np.mean(np.log(draws)) == pytest.approx(expected, abs=0.003)

    def test_samplers_reproducible(self):
        a, c = prior_draws(RngStream(99, (4,)), gamma=(2.5, 0.7), inv_gamma=(3.0, 2.0), size=1000)
        b, d = prior_draws(RngStream(99, (4,)), gamma=(2.5, 0.7), inv_gamma=(3.0, 2.0), size=1000)
        assert np.array_equal(a, b)
        assert np.array_equal(c, d)


class TestSolveShape:
    def test_monotone_newton_on_log_grid(self, monkeypatch):
        """Newton from -1/(2c) climbs to the root of psi - log = c without passing it."""
        iterates = []
        psi_minus_log = special_math._psi_minus_log
        monkeypatch.setattr(special_math, "_psi_minus_log", lambda x: iterates.append(x) or psi_minus_log(x))
        for alpha in np.logspace(-3, 8, 221):
            iterates.clear()
            c = float(special.digamma(alpha) - np.log(alpha))
            assert special_math._solve_shape(c) == pytest.approx(alpha, rel=1e-6)
            assert np.all(np.diff(iterates) >= 0.0), (alpha, iterates)

    def test_non_finite_start_raises(self):
        # -1/(2c) overflows to inf for a subnormal gap
        with pytest.raises(NumericError):
            special_math._solve_shape(-1e-320)


def gamma_fit(mean_x, mean_log_x):
    """Gamma shape and rate fitted to E[x] and E[log x]."""
    alpha = gamma_shape(mean_x, mean_log_x)
    return alpha, alpha / mean_x


def inv_gamma_fit(mean_inv_x, mean_log_x):
    """Inverse-gamma shape and scale fitted to E[1/x] and E[log x], as the gamma fit of 1/x."""
    return gamma_fit(mean_inv_x, -mean_log_x)


class TestGammaFit:
    def test_round_trip_known_point(self):
        # moments of Gamma(3, 1.5): E[x] = 2, E[log x] = psi(3) - log(1.5)
        mean_log = float(digamma(3.0) - math.log(1.5))
        alpha, beta = gamma_fit(2.0, mean_log)
        assert alpha == pytest.approx(3.0, rel=1e-9)
        assert beta == pytest.approx(1.5, rel=1e-9)

    def test_unit_exponential(self):
        alpha, beta = gamma_fit(1.0, -EULER_GAMMA)
        assert alpha == pytest.approx(1.0, rel=1e-9)
        assert beta == pytest.approx(1.0, rel=1e-9)

    def test_near_degenerate_gap_does_not_diverge(self):
        alpha, beta = gamma_fit(5.0, math.log(5.0) - 1e-9)
        assert math.isfinite(alpha) and alpha > 1e6
        assert beta == pytest.approx(alpha / 5.0, rel=1e-12)

    def test_infeasible_moments(self):
        with pytest.raises(NumericError, match=r"^E\[log x\] must be < log E\[x\]"):
            gamma_shape(2.0, math.log(2.0))
        with pytest.raises(NumericError, match=r"^E\[log x\] must be < log E\[x\]"):
            gamma_shape(2.0, math.log(2.0) + 0.5)

    def test_invalid_moments(self):
        with pytest.raises(ValueError, match="invalid moments"):
            gamma_shape(0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(0.05, 500.0),
        beta=st.floats(1e-3, 1e3),
    )
    def test_round_trip_identity(self, alpha, beta):
        fitted_alpha, fitted_beta = gamma_fit(*gamma_moments(alpha, beta))
        assert fitted_alpha == pytest.approx(alpha, rel=1e-6)
        assert fitted_beta == pytest.approx(beta, rel=1e-6)

    def test_beats_grid_oracle(self):
        rng = RngStream(21).generator()
        for _ in range(100):
            alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
            beta = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            mean, mean_log = gamma_moments(alpha, beta)
            fitted = gamma_fit(mean, mean_log)
            ours = gamma_fit_objective(*fitted, mean, mean_log)
            best, _, _ = gamma_objective_grid(mean, mean_log, *fitted)
            assert ours >= best - 1e-8


class TestInvGammaFit:
    def test_round_trip_known_point(self):
        a, b = inv_gamma_fit(*inv_gamma_moments(4.0, 6.0))
        assert a == pytest.approx(4.0, rel=1e-9)
        assert b == pytest.approx(6.0, rel=1e-9)

    def test_unit_case(self):
        a, b = inv_gamma_fit(1.0, float(-digamma(1.0)))
        assert a == pytest.approx(1.0, rel=1e-9)
        assert b == pytest.approx(1.0, rel=1e-9)

    def test_infeasible_moments(self):
        with pytest.raises(NumericError, match=r"^E\[log x\] must be < log E\[x\]"):
            inv_gamma_fit(2.0, -math.log(2.0))

    def test_beats_grid_oracle(self):
        rng = RngStream(22).generator()
        for _ in range(100):
            a = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
            b = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            mean_inv, mean_log = inv_gamma_moments(a, b)
            fitted = inv_gamma_fit(mean_inv, mean_log)
            ours = inv_gamma_fit_objective(*fitted, mean_inv, mean_log)
            best, _, _ = inv_gamma_objective_grid(mean_inv, mean_log, *fitted)
            assert ours >= best - 1e-8
