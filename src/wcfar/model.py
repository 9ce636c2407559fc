"""Hierarchical Bayesian generative model of non-target scores.

Per target, a location m, a precision multiplier lam and a shared score
variance sigma_sq are drawn once; each impostor pairing then draws its own
score mean mu around m, and scores are Gaussian around mu:

    m        ~ Normal(mu0, sigma0_sq)
    lam      ~ Gamma(alpha_lambda, beta_lambda)
    sigma_sq ~ InvGamma(a_sigma, b_sigma)
    mu_j     ~ Normal(m, sigma_sq / lam)        j = 1..N, sharing (m, lam, sigma_sq)
    s_[j,l]  ~ Normal(mu_j, sigma_sq)           l = 1..L

The sampling predictor keeps, of N candidate sets of L scores sharing one
target draw, the set with the highest sample mean M; the closed-form one
keeps the highest latent mean mu*.  Given M, a winning score is M plus a
centred residual of variance sigma_sq (1 - 1/L), so both record a Gaussian
tail above tau, the closed form with 1/L = 0: they share every draw and
differ only by the finite-L selection gap.

Neither simulates a candidate or a score: the maximum of N i.i.d. normals
has the law Phi^-1(U^(1/N)) for a uniform U, so both are one array kernel
over the outer iterations at a cost independent of N and L.  All
iterations draw (m, lam, sigma_sq, U) from one stream of the seed in an
order free of N, so every N reuses the same U; as Phi^-1(U^(1/N)) rises
with N, both estimates are non-decreasing in N pointwise for a fixed seed.

`EstimatorConfig` holds N and the Monte-Carlo settings, the seed and the
number of outer iterations.  Each estimate carries a 99% normal interval
across the iterations.  1/N and 1/L enter the kernel as floats, so N and
L past the float range are refused.
"""

from __future__ import annotations

import json
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
class EstimatorConfig:
    """Population size N and the predictors' `t_outer` outer iterations, drawn from the stream of `seed`."""

    seed: int
    n_impostors: int = 1
    t_outer: int = 1000

    def __post_init__(self):
        if self.t_outer < 1:
            raise ValueError(f"t_outer must be >= 1, got {self.t_outer}")
        if self.n_impostors < 1:
            raise ValueError(f"n_impostors must be >= 1, got {self.n_impostors}")
        if self.n_impostors > sys.float_info.max:
            raise ValueError(f"n_impostors must be at most {sys.float_info.max:g}, the float range")


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
    def from_json(cls, obj: "dict | str") -> "Hyperparameters":
        if isinstance(obj, str):
            obj = json.loads(obj)
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


def _outer_draws(h: Hyperparameters, cfg: EstimatorConfig):
    """Per outer iteration, target latents and the maximum of N standard normals
    Phi^-1(U^(1/N)), U in (0, 1], without cancellation when U^(1/N) is near 1."""
    g = RngStream(cfg.seed).generator()
    m, lam, sigma_sq = _sample_targets(h, cfg.t_outer, g)
    u = 1.0 - g.random(cfg.t_outer)
    z_max = -ndtri(-np.expm1(np.log(u) / cfg.n_impostors))
    return m, lam, sigma_sq, z_max


def gaussian_tail(mu, sigma_sq, tau: float) -> np.ndarray:
    """P(score > tau) for Normal(mu, sigma_sq) scores, elementwise, and the indicator
    mu > tau when every variance is 0; exact at tau = +-inf, where `ndtr` is 0 or 1."""
    if not np.any(sigma_sq):
        return np.greater(mu, tau).astype(float)
    return ndtr((mu - tau) / np.sqrt(sigma_sq))


def _predict_pfa(h: Hyperparameters, tau: float, cfg: EstimatorConfig, inv_l: float) -> EstimateWithCI:
    """Both predictors: the winning set's mean Gaussian tail above `tau`, with 1/L = `inv_l`."""
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    m, lam, sigma_sq, z_max = _outer_draws(h, cfg)
    means = m + np.sqrt(sigma_sq / lam + sigma_sq * inv_l) * z_max
    values = gaussian_tail(means, sigma_sq * (1.0 - inv_l), tau)
    return _estimate(values)


def predict_pfa_sampling(
    h: Hyperparameters,
    tau: float,
    cfg: EstimatorConfig,
    scores_per_pair: int = DEFAULT_SCORES_PER_PAIR,
) -> EstimateWithCI:
    """Closest-of-N false alarm rate with selection by sample mean.

    Of N = `cfg.n_impostors` candidate sets of L = `scores_per_pair` scores,
    the one with the highest sample mean M, the maximum of N Normal(m,
    sigma_sq / lam + sigma_sq / L), wins; its expected fraction of scores
    above `tau` is the tail of Normal(M, sigma_sq (1 - 1/L)), at L = 1 the
    indicator M > tau.  The draws are the closed form's, so the two
    estimates differ only by the finite-L selection gap.
    """
    if scores_per_pair < 1:
        raise ValueError(f"scores_per_pair must be >= 1, got {scores_per_pair}")
    if scores_per_pair > sys.float_info.max:
        raise ValueError(f"scores_per_pair must be at most {sys.float_info.max:g}, the float range")
    return _predict_pfa(h, tau, cfg, 1.0 / scores_per_pair)


def predict_pfa_closed_form(h: Hyperparameters, tau: float, cfg: EstimatorConfig) -> EstimateWithCI:
    """Closest-of-N false alarm rate without simulating scores.

    Selection is by the largest latent pair mean mu* = m + sqrt(sigma_sq /
    lam) * Z_N, and each iteration contributes the exact Gaussian tail mass
    above `tau` for that mean and the target's shared variance.
    """
    return _predict_pfa(h, tau, cfg, 0.0)
