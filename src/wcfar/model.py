"""Hierarchical Bayesian generative model of non-target scores.

Per target, a location m, a precision multiplier lam and a shared score
variance sigma_sq are drawn once; each impostor pairing then draws its own
score mean mu around m, and scores are Gaussian around mu:

    m        ~ Normal(mu0, sigma0_sq)
    lam      ~ Gamma(alpha_lambda, beta_lambda)
    sigma_sq ~ InvGamma(a_sigma, b_sigma)
    mu_j     ~ Normal(m, sigma_sq / lam)        j = 1..N, sharing (m, lam, sigma_sq)
    s_[j,l]  ~ Normal(mu_j, sigma_sq)           l = 1..L

Because all N candidate pairings of a target share one sigma_sq, the
closest-of-N false alarm rate admits two estimators: a sampling one that
keeps the candidate set with the highest sample mean and records its
fraction of scores above tau, and a closed-form one that keeps the highest
latent mean mu* and accumulates the exact Gaussian tail
1 - Phi(tau; mu*, sigma_sq).  The two agree up to the finite-sample
selection noise of the former.

Neither simulates the N candidates: the maximum of N i.i.d. normals has
the law Phi^-1(U^(1/N)) for a uniform U, so both are array kernels over
the outer iterations at a cost independent of N.  All iterations draw
(m, lam, sigma_sq, U) from one stream of the seed in an order free of N, so
every N reuses the same U; as Phi^-1(U^(1/N)) rises with N, the
closed-form estimate is non-decreasing in N pointwise for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimateWithCI, EstimatorConfig, _estimate
from .special_math import ndtr, ndtri
from .streams import RngStream, as_generator

_JSON_FIELDS = ("mu0", "sigma0_sq", "a_sigma", "b_sigma", "alpha_lambda", "beta_lambda")

# default scores per candidate set, matching an 18x18 utterance-pair grid
DEFAULT_SCORES_PER_PAIR = 324

# residual floats simulated at once by the sampling predictor
_CHUNK_FLOATS = 1 << 20


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

    A gamma draw can underflow to 0 at a tiny shape.  Arrays carry that on as
    lam = 0 or sigma_sq = inf; a scalar draw, one target of a corpus, is refused.
    """
    m = g.normal(h.mu0, math.sqrt(h.sigma0_sq), size=count)
    lam = g.gamma(h.alpha_lambda, scale=1.0 / h.beta_lambda, size=count)
    precision = g.gamma(h.a_sigma, scale=1.0 / h.b_sigma, size=count)
    if count is None and not (lam > 0 and precision > 0):
        raise ValueError(f"lam and sigma_sq must be positive and finite, got {lam}, 1 / {precision}")
    return m, lam, 1.0 / precision


def _outer_draws(h: Hyperparameters, cfg: EstimatorConfig):
    """Per outer iteration, target latents and the maximum of N standard
    normals Phi^-1(U^(1/N)), U in (0, 1], computed without cancellation when
    U^(1/N) is close to 1; then the generator, for any further draws."""
    g = RngStream(cfg.seed).generator()
    m, lam, sigma_sq = _sample_targets(h, cfg.t_outer, g)
    u = 1.0 - g.random(cfg.t_outer)
    z_max = -ndtri(-np.expm1(np.log(u) / cfg.n_impostors))
    return m, lam, sigma_sq, z_max, g


def gaussian_tail(mu, sigma_sq, tau: float) -> np.ndarray:
    """P(score > tau) for Normal(mu, sigma_sq) scores, elementwise; exact at tau = +-inf."""
    if math.isinf(tau):
        return np.full(np.shape(mu), 0.0 if tau > 0 else 1.0)
    return ndtr((mu - tau) / np.sqrt(sigma_sq))


def score_set_tail(means, residuals, tau: float) -> np.ndarray:
    """Fraction of each score set `means[t] + residuals[t, :]` above `tau`."""
    return np.mean(residuals > (tau - means)[:, None], axis=1)


def predict_pfa_sampling(
    h: Hyperparameters,
    tau: float,
    cfg: EstimatorConfig,
    scores_per_pair: int = DEFAULT_SCORES_PER_PAIR,
    level: float = 0.99,
) -> EstimateWithCI:
    """Closest-of-N false alarm rate by simulating the winning score set.

    Per outer iteration, of N = `cfg.n_impostors` candidate sets of L =
    `scores_per_pair` scores sharing one target draw, the set with the
    highest sample mean wins and its fraction of scores above `tau` is
    recorded.  Only the winner is simulated, exactly in law: the sample
    means are i.i.d. Normal(m, sigma_sq / lam + sigma_sq / L), and a
    Gaussian sample's residuals are independent of its mean, so the
    winner's scores are its mean plus the centred residuals of L fresh
    Normal(0, sigma_sq) draws.
    """
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    if scores_per_pair < 1:
        raise ValueError(f"scores_per_pair must be >= 1, got {scores_per_pair}")
    m, lam, sigma_sq, z_max, g = _outer_draws(h, cfg)
    means = m + np.sqrt(sigma_sq * (1.0 / lam + 1.0 / scores_per_pair)) * z_max
    values = np.empty(cfg.t_outer)
    rows = max(1, _CHUNK_FLOATS // scores_per_pair)
    for start in range(0, cfg.t_outer, rows):
        part = slice(start, start + rows)
        residuals = g.standard_normal((values[part].size, scores_per_pair))
        residuals -= residuals.mean(axis=1, keepdims=True)
        residuals *= np.sqrt(sigma_sq[part])[:, None]
        values[part] = score_set_tail(means[part], residuals, tau)
    return _estimate(values, cfg, cfg.n_impostors, tau, level)


def predict_pfa_closed_form(
    h: Hyperparameters,
    tau: float,
    cfg: EstimatorConfig,
    level: float = 0.99,
) -> EstimateWithCI:
    """Closest-of-N false alarm rate without simulating scores.

    Selection is by the largest latent pair mean mu* = m + sqrt(sigma_sq /
    lam) * Z_N, and each iteration contributes the exact Gaussian tail mass
    above `tau` for that mean and the target's shared variance.
    """
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    m, lam, sigma_sq, z_max, _ = _outer_draws(h, cfg)
    values = gaussian_tail(m + np.sqrt(sigma_sq / lam) * z_max, sigma_sq, tau)
    return _estimate(values, cfg, cfg.n_impostors, tau, level)


def marginal_score_samples(h: Hyperparameters, count: int, rng) -> np.ndarray:
    """Scores from the full hierarchy, one fresh target and pairing each.

    The marginal law is a symmetric variance mixture of Gaussians centred
    at mu0: heavier-tailed than a single Gaussian, but with zero skewness.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    g = as_generator(rng)
    m, lam, sigma_sq = _sample_targets(h, count, g)
    mu = g.normal(m, np.sqrt(sigma_sq / lam))
    return g.normal(mu, np.sqrt(sigma_sq))
