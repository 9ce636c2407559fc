"""Hierarchical Bayesian generative model of non-target scores.

Per target, a location m, a precision multiplier lam and a shared score
variance sigma_sq are drawn once; each impostor pairing then draws its own
score mean mu around m, and scores are Gaussian around mu:

    m        ~ Normal(mu0, sigma0_sq)
    lam      ~ Gamma(alpha_lambda, beta_lambda)
    sigma_sq ~ InvGamma(a_sigma, b_sigma)
    mu_j     ~ Normal(m, sigma_sq / lam)        j = 1..N, sharing (m, lam, sigma_sq)
    s_[j,l]  ~ Normal(mu_j, sigma_sq)           l = 1..L

The predictor keeps, of N candidate sets of L scores sharing one target
draw, the set with the highest sample mean M.  Given M, a winning score is
M plus a centred residual of variance sigma_sq (1 - 1/L), so the estimate
is a Gaussian tail above tau.  At L = inf, where 1/L is exactly 0, the
winner is the set with the highest latent mean mu*: that is the closed
form, and every finite L differs from it only by the selection gap.

No candidate and no score is simulated: the maximum of N i.i.d. normals
has the law Phi^-1(U^(1/N)) for a uniform U, so each N is one array
kernel over the outer iterations at a cost independent of N and L.  The
outer iterations draw (m, lam, sigma_sq, U) once from one stream of the
seed, and every N of the list reuses them; as Phi^-1(U^(1/N)) rises with
N, the estimates are non-decreasing in N pointwise for a fixed seed.

Each estimate carries a 99% normal interval across the iterations.  1/N
and 1/L enter the kernel as floats, so N and a finite L past the float
range are refused.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import EstimateWithCI, _estimate
from .special_math import ndtr, ndtri
from .streams import RngStream

_JSON_FIELDS = ("mu0", "sigma0_sq", "a_sigma", "b_sigma", "alpha_lambda", "beta_lambda")

# default scores per candidate set, matching an 18x18 utterance-pair grid
DEFAULT_SCORES_PER_PAIR = 324


@dataclass(frozen=True)
class Hyperparameters:
    """The six scalars that fully specify the generative model."""

    mu0: float
    sigma0_sq: float
    a_sigma: float
    b_sigma: float
    alpha_lambda: float
    beta_lambda: float

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise ValueError(f"mu0 must be finite, got {self.mu0}")
        for name in _JSON_FIELDS[1:]:
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _JSON_FIELDS}

    @classmethod
    def from_json(cls, obj: dict) -> "Hyperparameters":
        if not isinstance(obj, dict):
            raise ValueError(f"hyperparameter JSON must be an object, got {type(obj).__name__}")
        missing = [k for k in _JSON_FIELDS if k not in obj]
        if missing:
            raise ValueError(f"hyperparameter JSON missing key(s) {missing}")
        try:
            values = {k: float(obj[k]) for k in _JSON_FIELDS}
        except (TypeError, ValueError):
            given = {k: obj[k] for k in _JSON_FIELDS}
            raise ValueError(f"hyperparameters must be numbers, got {given}") from None
        return cls(**values)

    def replace(self, **overrides) -> "Hyperparameters":
        unknown = set(overrides) - set(_JSON_FIELDS)
        if unknown:
            raise ValueError(f"unknown hyperparameter(s) {sorted(unknown)}")
        merged = self.to_json()
        merged.update(overrides)
        return Hyperparameters(**merged)


def _sample_targets(h: Hyperparameters, count: int | None, g: np.random.Generator):
    """`count` independent (m, lam, sigma_sq) draws as three arrays, or scalars for None.

    A gamma draw can underflow to 0 at a tiny shape; lam = 0 or sigma_sq =
    1 / 0 is refused.
    """
    m = g.normal(h.mu0, math.sqrt(h.sigma0_sq), size=count)
    lam = g.gamma(h.alpha_lambda, scale=1.0 / h.beta_lambda, size=count)
    precision = g.gamma(h.a_sigma, scale=1.0 / h.b_sigma, size=count)
    if not (np.min(lam) > 0 and np.min(precision) > 0):
        raise ValueError(
            f"lam and sigma_sq must be positive and finite, got lam {np.min(lam)}, "
            f"sigma_sq 1 / {np.min(precision)}"
        )
    return m, lam, 1.0 / precision


def gaussian_tail(mu, sigma_sq, tau: float) -> np.ndarray:
    """P(score > tau) for Normal(mu, sigma_sq) scores, elementwise, and the indicator
    mu > tau when every variance is 0; exact at tau = +-inf, where `ndtr` is 0 or 1."""
    if not np.any(sigma_sq):
        return np.greater(mu, tau).astype(float)
    return ndtr((mu - tau) / np.sqrt(sigma_sq))


def predict_pfa(
    h: Hyperparameters,
    tau: float,
    n_impostors: list[int],
    *,
    seed: int,
    t_outer: int = 1000,
    scores_per_pair: float = math.inf,
) -> list[EstimateWithCI]:
    """Closest-of-N false alarm rate at each N of `n_impostors`, in order.

    Of N candidate sets of L = `scores_per_pair` scores, the one with the
    highest sample mean M, the maximum of N Normal(m, sigma_sq / lam +
    sigma_sq / L), wins; its expected fraction of scores above `tau` is the
    tail of Normal(M, sigma_sq (1 - 1/L)), at L = 1 the indicator M > tau.
    At L = inf the winner is the largest latent pair mean and its tail is
    exact: the closed form.  Every argument is checked before the
    `t_outer` outer iterations are drawn, once, from the stream of `seed`.
    """
    if t_outer < 1:
        raise ValueError(f"t_outer must be >= 1, got {t_outer}")
    for n in n_impostors:
        if n < 1:
            raise ValueError(f"n_impostors must be >= 1, got {n}")
        if n > sys.float_info.max:
            raise ValueError(f"n_impostors must be at most {sys.float_info.max:g}, the float range")
    if scores_per_pair < 1:
        raise ValueError(f"scores_per_pair must be >= 1, got {scores_per_pair}")
    # an int past the float range is compared exactly, never converted
    if sys.float_info.max < scores_per_pair < math.inf:
        raise ValueError(f"scores_per_pair must be at most {sys.float_info.max:g}, the float range")
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    g = RngStream(seed).generator()
    m, lam, sigma_sq = _sample_targets(h, t_outer, g)
    log_u = np.log(1.0 - g.random(t_outer))  # U in (0, 1]
    inv_l = 1.0 / scores_per_pair
    spread = np.sqrt(sigma_sq / lam + sigma_sq * inv_l)
    residual = sigma_sq * (1.0 - inv_l)
    estimates = []
    for n in n_impostors:
        # Phi^-1(U^(1/N)), without cancellation when U^(1/N) is near 1
        z_max = -ndtri(-np.expm1(log_u / n))
        estimates.append(_estimate(gaussian_tail(m + spread * z_max, residual, tau)))
    return estimates
