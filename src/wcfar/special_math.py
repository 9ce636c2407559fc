"""Special functions and the gamma shape solver.

`gamma_shape` solves the concave problem

    max_{alpha, beta}  alpha*log(beta) - lgamma(alpha)
                       + (alpha - 1)*E[log x] - beta*E[x]

by profiling out the rate (beta = alpha / E[x]), which reduces it to the
scalar equation psi(alpha) - log(alpha) = c.  The left side f is strictly
increasing from -inf to 0 on alpha > 0, so any feasible c < 0 has a
unique root.  f is also strictly concave, so each Newton iterate lands at
or left of the root, and f(alpha) < -1/(2 alpha), so the start -1/(2c) is
left of it already: the iterates climb to the root without passing it.
An inverse-gamma fit of x is the gamma fit of 1/x, from E[1/x] and
-E[log x].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleMomentsError, NumericError

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200
_BLOCK = 1 << 16  # elements per block of `_fill`: 512 KiB per float array


# W. J. Cody's rational approximations of erf and erfc (Math. Comp. 23, 1969),
# in Horner order, highest power first: erf(x) = x P(x^2)/Q(x^2) for |x| <
# 0.46875; erfc(y) = exp(-y^2) P(y)/Q(y) for y <= 4, and exp(-y^2)/y
# (1/sqrt(pi) - t P(t)/Q(t)) with t = 1/y^2 beyond.
_ERF_SMALL = (
    (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
     3.77485237685302021e2, 3.20937758913846947e3),
    (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
     2.84423683343917062e3),
)
_ERFC_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
     6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
     1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
    (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
     1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
     3.43936767414372164e3, 1.23033935480374942e3),
)
_ERFC_TAIL = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)

# M. J. Wichura's AS241 (Applied Statistics 37, 1988), the algorithm of
# `statistics.NormalDist.inv_cdf`: rationals in r = 0.180625 - q^2 for
# |q| = |p - 1/2| <= 0.425, else in r = sqrt(-log(min(p, 1 - p))) - 1.6 for
# r <= 5 and r - 5 beyond.
_NDTRI_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_NDTRI_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_NDTRI_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)

# Bernoulli numbers B_2, B_4, ..., B_18: the asymptotic series of digamma and
# trigamma.  From x >= _SERIES_FROM on, the first omitted term is below 1e-17
# of either function, so both reach smaller x by the recurrences
# psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798)
_SERIES_FROM = 10
_PSI_SERIES = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, start=1))[::-1]
_TRIGAMMA_SERIES = _BERNOULLI[::-1]
_SHIFTS = np.arange(float(_SERIES_FROM))


def _horner(t, coeffs):
    """coeffs[0] t^n + ... + coeffs[n], for a float or an array `t`."""
    out = t * coeffs[0] + coeffs[1]
    for c in coeffs[2:]:
        out *= t
        out += c
    return out


def _rational(t, coeffs):
    num, den = coeffs
    return _horner(t, num) / _horner(t, den)


def _scalar_or_array(x, out):
    """`out` as a float when `x` is a scalar, else as an array."""
    return float(out) if np.ndim(x) == 0 else out


def _fill(out, arg, mask, f):
    """out[mask] = f(arg[mask]), through index arrays, which are several times
    faster than boolean indexing on large arrays, and in blocks of _BLOCK, so
    that the temporaries of the many passes of `f` stay in cache."""
    idx = np.flatnonzero(mask)
    for start in range(0, idx.size, _BLOCK):
        part = idx[start : start + _BLOCK]
        out.put(part, f(arg.take(part)))


def _half_erfc_tail(y):
    t = 1.0 / (y * y)
    return 0.5 * np.exp(-y * y) / y * (1.0 / math.sqrt(math.pi) - t * _rational(t, _ERFC_TAIL))


def ndtr(z):
    """Standard normal CDF, elementwise; exactly 0 and 1 at -inf and +inf."""
    x = np.asarray(z, dtype=float).ravel() * math.sqrt(0.5)
    y = np.abs(x)
    half = np.empty_like(y)  # erfc(y) / 2
    small, tail = y < 0.46875, y > 4.0
    _fill(half, y, small, lambda s: 0.5 - 0.5 * s * _rational(s * s, _ERF_SMALL))
    # NaN is in neither `small` nor `tail`, and the arithmetic carries it through
    _fill(half, y, ~(small | tail), lambda s: 0.5 * np.exp(-s * s) * _rational(s, _ERFC_MID))
    _fill(half, y, tail, _half_erfc_tail)
    # Phi(z) = erfc(-x) / 2 is `half` where x has its sign bit set and 1 - `half`
    # elsewhere, so Phi(-0) = Phi(+0) = 1/2
    out = np.logical_not(np.signbit(x)) - np.copysign(half, x)
    return _scalar_or_array(z, out.reshape(np.shape(z)))


def ndtri(p):
    """Inverse of `ndtr` on [0, 1], elementwise; exactly -inf and +inf at 0 and 1."""
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    q = flat - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    _fill(out, q, central, lambda c: c * _rational(0.180625 - c * c, _NDTRI_CENTRAL))
    # at p = 0 and 1, r = inf and the far rational is inf/inf: those are set to inf
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(flat, 1.0 - flat)))
        far = r > 5.0
        _fill(out, r, ~(central | far), lambda s: _rational(s - 1.6, _NDTRI_NEAR))
        _fill(out, r, far, lambda s: np.where(s == np.inf, s, _rational(s - 5.0, _NDTRI_FAR)))
    # the tails hold |x|, the central rational has the sign of q already
    np.copysign(out, q, out=out)
    return _scalar_or_array(p, out.reshape(p.shape))


def gammaln(x):
    """log|Gamma(x)|, elementwise, by `math.lgamma`: its arrays here hold one value per target."""
    arr = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.lgamma, arr.ravel().tolist()), float, arr.size)
    return _scalar_or_array(x, out.reshape(arr.shape))


def _psi_minus_log_series(x):
    """psi(x) - log(x) = -1/(2x) - sum_k B_2k / (2k x^2k), for x >= _SERIES_FROM."""
    inv = 1.0 / x
    return -inv * (0.5 + inv * _horner(inv * inv, _PSI_SERIES))


def _trigamma_minus_inv_series(x):
    """psi'(x) - 1/x = 1/(2x^2) + sum_k B_2k / x^(2k+1), for x >= _SERIES_FROM."""
    inv = 1.0 / x
    return inv * inv * (0.5 + inv * _horner(inv * inv, _TRIGAMMA_SERIES))


def _recurrence_terms(x):
    """x + _SERIES_FROM and, along a new last axis, 1/(x + k) for k < _SERIES_FROM."""
    arr = np.asarray(x, dtype=float)
    return arr + _SERIES_FROM, 1.0 / (arr[..., None] + _SHIFTS)


def trigamma(x):
    """psi'(x), the derivative of digamma, elementwise for x > 0."""
    shifted, terms = _recurrence_terms(x)
    out = 1.0 / shifted + _trigamma_minus_inv_series(shifted) + (terms * terms).sum(axis=-1)
    return _scalar_or_array(x, out)


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"digamma requires finite x > 0, got {x}")
    shifted, terms = _recurrence_terms(arr)
    out = np.log(shifted) + _psi_minus_log_series(shifted) - terms.sum(axis=-1)
    return _scalar_or_array(x, out)


def _psi_minus_log(x: float) -> float:
    """psi(x) - log(x), computed without cancellation for large x."""
    if x < _SERIES_FROM:
        return digamma(x) - math.log(x)
    return _psi_minus_log_series(x)


def _trigamma_minus_inv(x: float) -> float:
    """psi'(x) - 1/x, the derivative of `_psi_minus_log`; strictly positive."""
    if x < _SERIES_FROM:
        return trigamma(x) - 1.0 / x
    return _trigamma_minus_inv_series(x)


def _solve_shape(c: float) -> float:
    """Unique root of psi(alpha) - log(alpha) = c for c < 0, by Newton's method from -1/(2c)."""
    alpha = -0.5 / c
    for _ in range(_NEWTON_MAX_ITER):
        if not (alpha > 0 and math.isfinite(alpha)):
            raise NumericError(f"shape solve reached the iterate {alpha} (c={c})")
        resid = _psi_minus_log(alpha) - c
        if abs(resid) <= _NEWTON_TOL:
            return alpha
        candidate = alpha - resid / _trigamma_minus_inv(alpha)
        if candidate == alpha:
            # the step fell below one ulp of alpha: the residual may stall
            # just above the tolerance for extreme shapes
            return alpha
        alpha = candidate
    raise NumericError(
        f"shape solve did not converge in {_NEWTON_MAX_ITER} iterations; last iterate {alpha} (c={c})"
    )


def gamma_shape(mean_x: float, mean_log_x: float) -> float:
    """Maximum-likelihood gamma shape from E[x] and E[log x]; the rate is the shape / E[x].

    The shape solves psi(alpha) - log(alpha) = mean_log_x - log(mean_x);
    the right side must be strictly negative (Jensen's inequality
    guarantees this for moments of any non-degenerate positive
    distribution).
    """
    if not (mean_x > 0 and math.isfinite(mean_x) and math.isfinite(mean_log_x)):
        raise ValueError(f"invalid moments: mean={mean_x}, mean_log={mean_log_x}")
    c = mean_log_x - math.log(mean_x)
    if c >= 0:
        raise InfeasibleMomentsError(
            f"E[log x] must be < log E[x]; got gap {-c:.3e} (mean={mean_x}, mean_log={mean_log_x})"
        )
    return _solve_shape(c)
