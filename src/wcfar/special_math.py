"""Special functions, conjugate-family distributions and moment fitters.

Everything downstream of this module is deterministic given the RNG state
passed in explicitly.  The two fitters solve the concave problems

    max_{alpha, beta}  alpha*log(beta) - lgamma(alpha)
                       + (alpha - 1)*E[log x] - beta*E[x]          (gamma)

    max_{a, b}         a*log(b) - lgamma(a)
                       - (a + 1)*E[log x] - b*E[1/x]               (inverse gamma)

by profiling out the rate (beta = alpha / mean), which reduces each problem
to the scalar equation psi(alpha) - log(alpha) = c.  The left side is
strictly increasing from -inf to 0 on alpha > 0, so any feasible c < 0 has
a unique root and bracketing is trivial; a safeguarded Newton iteration
with bisection fallback is guaranteed to converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMomentsError, NumericError
from .streams import as_generator

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200


def sp():
    """`scipy.special`, imported on the first call rather than at load time, so
    that only the commands that evaluate a special function pay its ~0.3 s import."""
    from scipy import special

    return special


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parametrisation of the gamma distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"gamma shape must be positive and finite, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"gamma rate must be positive and finite, got {self.beta}")

    @property
    def mean(self) -> float:
        return self.alpha / self.beta

    @property
    def mean_log(self) -> float:
        """E[log x] = psi(alpha) - log(beta)."""
        return float(sp().digamma(self.alpha) - np.log(self.beta))


@dataclass(frozen=True)
class InvGammaParams:
    """Shape/scale parametrisation of the inverse-gamma distribution."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"inverse-gamma shape must be positive and finite, got {self.a}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"inverse-gamma scale must be positive and finite, got {self.b}")

    @property
    def mean_inv(self) -> float:
        """E[1/x] = a/b."""
        return self.a / self.b

    @property
    def mean_log(self) -> float:
        """E[log x] = log(b) - psi(a)."""
        return float(np.log(self.b) - sp().digamma(self.a))


@dataclass(frozen=True)
class GaussianParams:
    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"gaussian mean must be finite, got {self.mean}")
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError(f"gaussian variance must be positive and finite, got {self.variance}")


def normal_cdf(x, p: GaussianParams):
    """Gaussian CDF at `x`; accepts scalars or arrays, and +-inf limits."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("normal_cdf is undefined for NaN input")
    out = sp().ndtr((arr - p.mean) / math.sqrt(p.variance))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"digamma requires finite x > 0, got {x}")
    out = sp().digamma(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def sample_gamma(p: GammaParams, rng, size=None):
    """Draw from Gamma(alpha, rate=beta)."""
    g = as_generator(rng)
    return g.gamma(p.alpha, scale=1.0 / p.beta, size=size)


def sample_inv_gamma(p: InvGammaParams, rng, size=None):
    """Draw from InvGamma(a, scale=b) as the reciprocal of a Gamma(a, rate=b) draw."""
    g = as_generator(rng)
    return 1.0 / g.gamma(p.a, scale=1.0 / p.b, size=size)


def _psi_minus_log(x: float) -> float:
    """psi(x) - log(x), computed without cancellation for large x."""
    if x < 32.0:
        return float(sp().digamma(x) - math.log(x))
    # asymptotic tail: -1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6) + 1/(240x^8)
    inv = 1.0 / x
    inv2 = inv * inv
    return -inv * (0.5 + inv * (1 / 12.0 - inv2 * (1 / 120.0 - inv2 * (1 / 252.0 - inv2 / 240.0))))


def _trigamma_minus_inv(x: float) -> float:
    """psi'(x) - 1/x, the derivative of `_psi_minus_log`; strictly positive."""
    if x < 32.0:
        return float(sp().polygamma(1, x) - 1.0 / x)
    inv = 1.0 / x
    inv2 = inv * inv
    return inv2 * (0.5 + inv * (1 / 6.0 - inv2 * (1 / 30.0 - inv2 * (1 / 42.0 - inv2 / 30.0))))


def _solve_shape(c: float) -> float:
    """Unique root of psi(alpha) - log(alpha) = c for c < 0."""
    # asymptotic inverse: psi(a) - log(a) ~ -1/(2a)
    alpha = max(-0.5 / c, 1e-12)
    lo, hi = alpha, alpha
    while _psi_minus_log(lo) > c:
        lo /= 8.0
        if lo < 1e-300:
            raise NumericError(f"failed to bracket shape solve from below (c={c})")
    while _psi_minus_log(hi) < c:
        hi *= 8.0
        if hi > 1e300:
            raise NumericError(f"failed to bracket shape solve from above (c={c})")
    alpha = min(max(alpha, lo), hi)
    trace = []
    for _ in range(_NEWTON_MAX_ITER):
        resid = _psi_minus_log(alpha) - c
        trace.append((alpha, resid))
        if abs(resid) <= _NEWTON_TOL:
            return alpha
        if resid > 0:
            hi = alpha
        else:
            lo = alpha
        step = resid / _trigamma_minus_inv(alpha)
        candidate = alpha - step
        if not (lo < candidate < hi) or not math.isfinite(candidate):
            candidate = 0.5 * (lo + hi)
        if candidate == alpha:
            # bracket collapsed to machine precision: relative residual may
            # stall just above the target for extreme shapes
            return alpha
        alpha = candidate
    raise NumericError(
        f"shape solve did not converge in {_NEWTON_MAX_ITER} iterations; "
        f"last iterates: {trace[-5:]}"
    )


def gamma_fit_objective(p: GammaParams, mean_x: float, mean_log_x: float) -> float:
    """Per-observation expected log density maximised by `fit_gamma_from_expectations`."""
    return float(
        p.alpha * np.log(p.beta) - sp().gammaln(p.alpha) + (p.alpha - 1.0) * mean_log_x - p.beta * mean_x
    )


def inv_gamma_fit_objective(p: InvGammaParams, mean_inv_x: float, mean_log_x: float) -> float:
    """Per-observation expected log density maximised by `fit_inv_gamma_from_expectations`."""
    return float(
        p.a * np.log(p.b) - sp().gammaln(p.a) - (p.a + 1.0) * mean_log_x - p.b * mean_inv_x
    )


def fit_gamma_from_expectations(mean_x: float, mean_log_x: float) -> GammaParams:
    """Maximum-likelihood gamma parameters from E[x] and E[log x].

    The stationary conditions are beta = alpha / mean_x and
    psi(alpha) - log(alpha) = mean_log_x - log(mean_x); the right side must
    be strictly negative (Jensen's inequality guarantees this for moments of
    any non-degenerate positive distribution).
    """
    if not (mean_x > 0 and math.isfinite(mean_x) and math.isfinite(mean_log_x)):
        raise ValueError(f"invalid moments: mean={mean_x}, mean_log={mean_log_x}")
    c = mean_log_x - math.log(mean_x)
    if c >= 0:
        raise InfeasibleMomentsError(
            f"E[log x] must be < log E[x]; got gap {-c:.3e} (mean={mean_x}, mean_log={mean_log_x})"
        )
    alpha = _solve_shape(c)
    return GammaParams(alpha=alpha, beta=alpha / mean_x)


def fit_inv_gamma_from_expectations(mean_inv_x: float, mean_log_x: float) -> InvGammaParams:
    """Maximum-likelihood inverse-gamma parameters from E[1/x] and E[log x].

    If x follows InvGamma(a, b) then 1/x follows Gamma(a, rate=b) with
    E[log(1/x)] = -E[log x], so the fit reduces to the gamma fitter applied
    to the moments of 1/x.
    """
    if not (mean_inv_x > 0 and math.isfinite(mean_inv_x) and math.isfinite(mean_log_x)):
        raise ValueError(f"invalid moments: mean_inv={mean_inv_x}, mean_log={mean_log_x}")
    if -mean_log_x >= math.log(mean_inv_x):
        gap = math.log(mean_inv_x) + mean_log_x
        raise InfeasibleMomentsError(
            f"-E[log x] must be < log E[1/x]; got gap {gap:.3e} "
            f"(mean_inv={mean_inv_x}, mean_log={mean_log_x})"
        )
    g = fit_gamma_from_expectations(mean_inv_x, -mean_log_x)
    return InvGammaParams(a=g.alpha, b=g.beta)
