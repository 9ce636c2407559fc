"""Mean-field variational EM for the hierarchical score model.

The posterior over per-target latents (m_i, lam_i, sigma_sq_i) and
per-pair means (mu_ij) is approximated by a fully factorised distribution

    q = prod_i  Normal(m_i) Gamma(lam_i) InvGamma(sigma_sq_i)
                prod_j Normal(mu_ij)

optimised by coordinate ascent.  Every factor update is the exact
conditional-conjugate optimum given the others, so each sweep cannot
decrease the evidence lower bound; the M-step then re-fits the six
hyper-parameters to the expected sufficient statistics, which also cannot
decrease the bound.  The bound itself is available in closed form and is
the correctness oracle for all the update formulas.

Writing E[.] for expectations under the current q, which `PosteriorFactors`
computes from its own parameters (E[1/sigma_sq_i], E[log sigma_sq_i],
E[lam_i] and E[log lam_i] are its properties), the factor optima are

    q(mu_ij):      mean (sum_l s_ijl + E[lam_i] E[m_i]) / (L_ij + E[lam_i])
                   var  1 / (E[1/sigma_sq_i] (L_ij + E[lam_i]))
    q(m_i):        prec N_i E[lam_i] E[1/sigma_sq_i] + 1/sigma0_sq
                   mean prec^-1 (E[lam_i] E[1/sigma_sq_i] sum_j E[mu_ij]
                                 + mu0/sigma0_sq)
    q(lam_i):      Gamma(alpha_lambda + N_i/2,
                         beta_lambda + E[1/sigma_sq_i] S_i / 2)
    q(sigma_sq_i): InvGamma(a_sigma + (N_i + sum_j L_ij)/2,
                            b_sigma + R_i/2 + E[lam_i] S_i / 2)

with S_i = sum_j E[(mu_ij - m_i)^2] and R_i = sum_jl E[(s_ijl - mu_ij)^2],
both evaluated as squared mean offsets plus variances (never as raw
second-moment differences, which cancel catastrophically near the
variance floors).  The M-step sets mu0 and sigma0_sq to the exact
maximisers (mean of E[m_i]; spread of the E[m_i] plus their posterior
variances, which a point estimate would drop) and fits the gamma and
inverse-gamma priors to the averaged expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import Hyperparameters
from .score_data import PackedCorpus
from .special_math import digamma, gamma_shape, gammaln

VARIANCE_FLOOR = 1e-12
# ceiling on fitted prior shapes: beyond this the prior is numerically a
# point mass, and degenerate corpora would otherwise sharpen it forever
SHAPE_CAP = 1e6
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class PosteriorFactors:
    """Variational factor parameters, one entry per target / per pair."""

    m_mean: np.ndarray  # q(m_i) Normal mean
    m_var: np.ndarray  # q(m_i) Normal variance
    sigma_shape: np.ndarray  # q(sigma_sq_i) InvGamma shape
    sigma_scale: np.ndarray  # q(sigma_sq_i) InvGamma scale
    lam_shape: np.ndarray  # q(lam_i) Gamma shape
    lam_rate: np.ndarray  # q(lam_i) Gamma rate
    pair_mean: np.ndarray  # q(mu_ij) Normal mean
    pair_var: np.ndarray  # q(mu_ij) Normal variance

    @classmethod
    def from_prior(cls, h: Hyperparameters, data: PackedCorpus) -> "PosteriorFactors":
        t, p = data.n_targets, data.n_pairs
        return cls(
            m_mean=np.full(t, h.mu0),
            m_var=np.full(t, h.sigma0_sq),
            sigma_shape=np.full(t, h.a_sigma),
            sigma_scale=np.full(t, h.b_sigma),
            lam_shape=np.full(t, h.alpha_lambda),
            lam_rate=np.full(t, h.beta_lambda),
            pair_mean=np.full(p, h.mu0),
            pair_var=np.full(p, h.sigma0_sq),
        )

    @property
    def inv_sigma(self) -> np.ndarray:
        """E[1/sigma_sq_i]"""
        return self.sigma_shape / self.sigma_scale

    @property
    def log_sigma(self) -> np.ndarray:
        """E[log sigma_sq_i]"""
        return np.log(self.sigma_scale) - digamma(self.sigma_shape)

    @property
    def lam_mean(self) -> np.ndarray:
        """E[lam_i]"""
        return self.lam_shape / self.lam_rate

    @property
    def log_lam(self) -> np.ndarray:
        """E[log lam_i]"""
        return digamma(self.lam_shape) - np.log(self.lam_rate)

    def validate(self):
        for name in ("m_var", "sigma_shape", "sigma_scale", "lam_shape", "lam_rate", "pair_var"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise NumericError(f"factor parameter {name} left the positive domain")


@dataclass(frozen=True)
class FitReport:
    hyperparameters: Hyperparameters
    elbo_trace: np.ndarray  # one bound per iteration
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.elbo_trace)


def _per_target(data: PackedCorpus, values: np.ndarray) -> np.ndarray:
    """Sum pair-level `values` into per-target totals."""
    return np.bincount(data.pair_target, weights=values, minlength=data.n_targets)


def _pair_spread(data: PackedCorpus, q: PosteriorFactors) -> np.ndarray:
    """E[(mu_ij - m_i)^2] per pair, in cancellation-free deviation form."""
    tgt = data.pair_target
    return (q.pair_mean - q.m_mean[tgt]) ** 2 + q.pair_var + q.m_var[tgt]


def _score_residuals(data: PackedCorpus, q: PosteriorFactors) -> np.ndarray:
    """R_ij = sum_l E[(s_ijl - mu_ij)^2] as centred data spread plus offsets."""
    counts = data.pair_count.astype(float)
    shift = (data.pair_means() - q.pair_mean) ** 2 + q.pair_var
    return data.pair_centered_ss + counts * shift


def update_q_mu(q: PosteriorFactors, data: PackedCorpus, h: Hyperparameters) -> None:
    """Coordinate update of every pair-mean factor q(mu_ij)."""
    del h  # the prior enters only through the target factors
    tgt = data.pair_target
    lam = q.lam_mean[tgt]
    counts = data.pair_count
    q.pair_mean = (data.pair_sums + lam * q.m_mean[tgt]) / (counts + lam)
    q.pair_var = np.maximum(1.0 / (q.inv_sigma[tgt] * (counts + lam)), VARIANCE_FLOOR)
    q.validate()


def update_q_m(q: PosteriorFactors, data: PackedCorpus, h: Hyperparameters) -> None:
    """Coordinate update of every target-location factor q(m_i).

    The posterior mean is written as the prior mean plus a data pull, which
    stays exact even when the prior variance sits at its floor.
    """
    precision = data.pairs_per_target * q.lam_mean * q.inv_sigma + 1.0 / h.sigma0_sq
    if np.any(precision <= 0) or not np.all(np.isfinite(precision)):
        raise NumericError("non-positive precision in q(m) update")
    pull = _per_target(data, q.pair_mean - h.mu0) * q.lam_mean * q.inv_sigma
    q.m_var = np.maximum(1.0 / precision, VARIANCE_FLOOR)
    q.m_mean = h.mu0 + pull / precision
    q.validate()


def update_q_lambda(q: PosteriorFactors, data: PackedCorpus, h: Hyperparameters) -> None:
    """Coordinate update of every precision-multiplier factor q(lam_i)."""
    q.lam_shape = h.alpha_lambda + 0.5 * data.pairs_per_target
    rate = h.beta_lambda + 0.5 * q.inv_sigma * _per_target(data, _pair_spread(data, q))
    q.lam_rate = np.maximum(rate, VARIANCE_FLOOR)
    q.validate()


def update_q_sigma(q: PosteriorFactors, data: PackedCorpus, h: Hyperparameters) -> None:
    """Coordinate update of every shared-variance factor q(sigma_sq_i)."""
    scores_per_target = _per_target(data, data.pair_count.astype(float))
    q.sigma_shape = h.a_sigma + 0.5 * (data.pairs_per_target + scores_per_target)
    scale = (
        h.b_sigma
        + 0.5 * _per_target(data, _score_residuals(data, q))
        + 0.5 * q.lam_mean * _per_target(data, _pair_spread(data, q))
    )
    q.sigma_scale = np.maximum(scale, VARIANCE_FLOOR)
    q.validate()


def e_step(q: PosteriorFactors, data: PackedCorpus, h: Hyperparameters) -> None:
    """One full coordinate-ascent sweep, innermost factors first."""
    update_q_mu(q, data, h)
    update_q_m(q, data, h)
    update_q_lambda(q, data, h)
    update_q_sigma(q, data, h)


def m_step(q: PosteriorFactors) -> Hyperparameters:
    """Hyper-parameters maximising the expected complete-data log density.

    The gamma-family shapes are capped at SHAPE_CAP; the profiled rate
    keeps beta = alpha/mean, which is the exact maximiser on the capped
    set, so the update still cannot decrease the bound.
    """
    mu0 = float(q.m_mean.mean())
    spread = float(np.mean((q.m_mean - mu0) ** 2 + q.m_var))
    sigma0_sq = max(spread, VARIANCE_FLOOR)
    lam_mean, log_lam = float(q.lam_mean.mean()), float(q.log_lam.mean())
    inv_sigma_mean, log_sigma = float(q.inv_sigma.mean()), float(q.log_sigma.mean())
    try:
        alpha_lambda = min(gamma_shape(lam_mean, log_lam), SHAPE_CAP)
        # 1/sigma_sq is gamma under the inverse-gamma prior, with E[log(1/sigma_sq)] = -E[log sigma_sq]
        a_sigma = min(gamma_shape(inv_sigma_mean, -log_sigma), SHAPE_CAP)
    except NumericError as exc:
        raise NumericError(
            f"hyper-parameter update failed: {exc}; "
            f"lam moments ({lam_mean}, {log_lam}), sigma moments ({inv_sigma_mean}, {log_sigma})"
        ) from exc
    return Hyperparameters(
        mu0=mu0,
        sigma0_sq=sigma0_sq,
        a_sigma=a_sigma,
        b_sigma=a_sigma / inv_sigma_mean,
        alpha_lambda=alpha_lambda,
        beta_lambda=alpha_lambda / lam_mean,
    )


def elbo(data: PackedCorpus, q: PosteriorFactors, h: Hyperparameters) -> float:
    """Evidence lower bound E_q[log p(scores, latents)] + H[q], in closed form.

    All quadratic expectations are evaluated in deviation form (squared
    mean offsets plus variances), which keeps the bound exact when factors
    or hyper-parameters sit at their numerical floors.
    """
    tgt = data.pair_target
    counts = data.pair_count.astype(float)
    inv_sigma, log_sigma, lam_mean, log_lam = q.inv_sigma, q.log_sigma, q.lam_mean, q.log_lam

    # expected log prior of the per-target latents
    cross_m = -0.5 * (_LOG_2PI + math.log(h.sigma0_sq)) - (
        (q.m_mean - h.mu0) ** 2 + q.m_var
    ) / (2.0 * h.sigma0_sq)
    cross_lam = (
        h.alpha_lambda * math.log(h.beta_lambda)
        - gammaln(h.alpha_lambda)
        + (h.alpha_lambda - 1.0) * log_lam
        - h.beta_lambda * lam_mean
    )
    cross_sigma = (
        h.a_sigma * math.log(h.b_sigma)
        - gammaln(h.a_sigma)
        - (h.a_sigma + 1.0) * log_sigma
        - h.b_sigma * inv_sigma
    )

    # expected log density of pair means given target latents
    cross_pair = (
        0.5 * log_lam[tgt]
        - 0.5 * _LOG_2PI
        - 0.5 * log_sigma[tgt]
        - 0.5 * lam_mean[tgt] * inv_sigma[tgt] * _pair_spread(data, q)
    )

    # expected log likelihood of the scores
    residual = _score_residuals(data, q)
    cross_scores = (
        -0.5 * counts * (_LOG_2PI + log_sigma[tgt]) - 0.5 * inv_sigma[tgt] * residual
    )

    # entropies of the variational factors
    ent_m = 0.5 * np.log(2.0 * math.pi * math.e * q.m_var)
    ent_pair = 0.5 * np.log(2.0 * math.pi * math.e * q.pair_var)
    ent_lam = (
        q.lam_shape
        - np.log(q.lam_rate)
        + gammaln(q.lam_shape)
        + (1.0 - q.lam_shape) * digamma(q.lam_shape)
    )
    ent_sigma = (
        q.sigma_shape
        + np.log(q.sigma_scale)
        + gammaln(q.sigma_shape)
        - (1.0 + q.sigma_shape) * digamma(q.sigma_shape)
    )

    return float(
        cross_m.sum()
        + cross_lam.sum()
        + cross_sigma.sum()
        + cross_pair.sum()
        + cross_scores.sum()
        + ent_m.sum()
        + ent_pair.sum()
        + ent_lam.sum()
        + ent_sigma.sum()
    )


def moment_init(data: PackedCorpus) -> Hyperparameters:
    """Method-of-moments starting point for the EM iteration."""
    counts = data.pair_count.astype(float)
    pair_mean = data.pair_means()
    pair_var = np.maximum(
        data.pair_centered_ss / np.maximum(counts - 1.0, 1.0), VARIANCE_FLOOR
    )

    n_pairs = data.pairs_per_target.astype(float)
    grand = _per_target(data, pair_mean) / n_pairs
    mu0 = float(grand.mean())
    sigma0_sq = max(float(grand.var()), 1e-6)

    within = _per_target(data, pair_var) / n_pairs
    mean_within = max(float(within.mean()), VARIANCE_FLOOR)
    var_within = max(float(within.var()), 1e-12)
    a_sigma = max(mean_within**2 / var_within + 2.0, 2.1)
    b_sigma = max(mean_within * (a_sigma - 1.0), 1e-9)

    # spread of pair means around the target grand mean estimates sigma_sq/lam
    between = _per_target(data, (pair_mean - grand[data.pair_target]) ** 2)
    between = between / np.maximum(n_pairs - 1.0, 1.0)
    mean_count = max(float(counts.mean()), 1.0)
    lam_hat = within / np.maximum(between - within / mean_count, 1e-6)
    lam_hat = np.clip(lam_hat, 1e-3, 1e6)
    mean_lam = float(lam_hat.mean())
    var_lam = max(float(lam_hat.var()), 1e-12)
    alpha_lambda = min(max(mean_lam**2 / var_lam, 0.1), 1e6)
    beta_lambda = alpha_lambda / mean_lam
    return Hyperparameters(
        mu0=mu0,
        sigma0_sq=sigma0_sq,
        a_sigma=a_sigma,
        b_sigma=b_sigma,
        alpha_lambda=alpha_lambda,
        beta_lambda=beta_lambda,
    )


def fit(
    data: PackedCorpus,
    init: Hyperparameters | None = None,
    *,
    tol: float = 1e-7,
    max_iter: int = 500,
) -> FitReport:
    """Fit the six hyper-parameters to a corpus by variational EM.

    Alternates full coordinate-ascent sweeps with hyper-parameter updates
    until the relative change of the bound drops below `tol` (or `max_iter`
    is hit).  Deterministic given the corpus and the starting point; when
    `init` is omitted a method-of-moments start is used.

    A corpus with fewer than 2 targets, or without a pair of 2 or more
    scores, does not identify the model and is refused with ValueError, as
    are a `max_iter` below 1 and a `tol` not in [0, 1), NaN included; at 1
    or more the stop rule would pass without testing convergence.
    """
    if max_iter < 1 or not 0 <= tol < 1:
        raise ValueError(f"max_iter must be >= 1 and tol in [0, 1), got max_iter={max_iter}, tol={tol}")
    if data.n_targets < 2:
        count = "one target" if data.n_targets else "no targets"
        raise ValueError(f"cannot fit: the corpus has {count}; the prior over targets needs 2 or more")
    if not np.any(data.pair_count >= 2):
        raise ValueError("cannot fit: every pair has a single score; within-pair variance needs 2 or more")
    h = init if init is not None else moment_init(data)
    q = PosteriorFactors.from_prior(h, data)
    trace = []
    previous = -np.inf
    converged = False
    for iteration in range(1, max_iter + 1):
        try:
            e_step(q, data, h)
            h = m_step(q)
        except NumericError as exc:
            raise NumericError(f"iteration {iteration}: {exc}") from exc
        bound = elbo(data, q, h)
        trace.append(bound)
        if math.isfinite(previous) and abs(bound - previous) <= tol * abs(bound):
            converged = True
            break
        previous = bound
    return FitReport(hyperparameters=h, elbo_trace=np.asarray(trace), converged=converged)
