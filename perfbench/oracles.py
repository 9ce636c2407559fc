"""Reference computations that do not use the code under test.

  worst_case_expectation   exact expectation of the closest-of-N
                           Monte-Carlo estimator, by rank weights
  closed_form_expectation  3-D Gauss-Legendre quadrature of the model's
                           closest-of-N false alarm rate
  threshold_scan           detection cost and |P_fa - P_miss| at every
                           midpoint between distinct pooled scores
  pair_skewness            bias-corrected skewness of each pair's scores
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


def rank_weights(pairs: int, n: int) -> np.ndarray:
    """P(the rank-k pair is the closest of n drawn without replacement).

    Rank 0 has the highest mean.  The rank-k pair wins when it is drawn and
    the other n-1 candidates all come from the pairs-1-k lower ranks:
    C(pairs-1-k, n-1) / C(pairs, n).
    """
    total = math.comb(pairs, n)
    return np.array([math.comb(pairs - 1 - k, n - 1) / total for k in range(pairs)])


def worst_case_expectation(scores: np.ndarray, tau: float, n: int) -> float:
    """Expected closest-of-n false alarm rate over a dense (T, P, L) corpus.

    Targets are equally likely.  Within a target, pairs are ranked by mean
    score, highest first, with ties going to the lowest pair index (the
    estimator keeps the first maximum among index-sorted candidates).
    """
    means = scores.mean(axis=2)
    fa = (scores > tau).mean(axis=2)
    order = np.argsort(-means, axis=1, kind="stable")
    ranked = np.take_along_axis(fa, order, axis=1)
    return float((ranked @ rank_weights(scores.shape[1], n)).mean())


def closed_form_expectation(theta: dict, tau: float, n: int, nodes: int = 64) -> float:
    """E[Phi((mu0 + sigma Z_n / sqrt(lam) - tau) / sqrt(sigma0_sq + sigma^2))].

    Z_n is the maximum of n standard normals (CDF Phi^n), lam ~ Gamma and
    sigma^2 ~ InvGamma from `theta`; the target location m is integrated
    out analytically.  Each variable is written as the quantile function of
    a uniform, and the unit cube is integrated by Gauss-Legendre.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    lam = stats.gamma.ppf(u, theta["alpha_lambda"], scale=1.0 / theta["beta_lambda"])
    sig_sq = stats.invgamma.ppf(u, theta["a_sigma"], scale=theta["b_sigma"])
    # Phi^-1(u^(1/n)) without cancellation when u^(1/n) is close to 1
    z = -special.ndtri(-np.expm1(np.log(u) / n))
    sig = np.sqrt(sig_sq)[None, :, None]
    arg = (theta["mu0"] - tau + sig * z[None, None, :] / np.sqrt(lam)[:, None, None]) / np.sqrt(
        theta["sigma0_sq"] + sig**2
    )
    return float(np.einsum("i,j,k,ijk->", w, w, w, special.ndtr(arg)))


def threshold_scan(target: np.ndarray, nontarget: np.ndarray):
    """(thresholds, P_miss, P_fa) at every midpoint between distinct pooled scores.

    Includes the thresholds below and above every score.  A trial is
    accepted when its score is strictly above the threshold.
    """
    pooled = np.concatenate((target, nontarget))
    is_target = np.concatenate((np.ones(target.size), np.zeros(nontarget.size)))
    order = np.argsort(pooled, kind="stable")
    s, lab = pooled[order], is_target[order]
    # a cut at position i puts the i lowest scores at or below the threshold
    cuts = np.concatenate(([0], np.flatnonzero(s[1:] > s[:-1]) + 1, [s.size]))
    targets_below = np.concatenate(([0.0], np.cumsum(lab)))[cuts]
    nontargets_below = cuts - targets_below
    inner = cuts[1:-1]
    taus = np.concatenate(([s[0] - 1.0], 0.5 * (s[inner - 1] + s[inner]), [s[-1] + 1.0]))
    return taus, targets_below / target.size, 1.0 - nontargets_below / nontarget.size


def rates_at(target: np.ndarray, nontarget: np.ndarray, tau: float) -> tuple[float, float]:
    """(P_miss, P_fa) at one threshold."""
    return float(np.mean(target <= tau)), float(np.mean(nontarget > tau))


def dcf(p_miss, p_fa, p_target: float, c_miss: float, c_fa: float):
    """Detection cost normalised by the better trivial system."""
    norm = min(p_target * c_miss, (1.0 - p_target) * c_fa)
    return (p_target * c_miss * p_miss + (1.0 - p_target) * c_fa * p_fa) / norm


def pair_skewness(scores: np.ndarray) -> np.ndarray:
    """Adjusted Fisher-Pearson skewness along the last axis; NaN if undefined."""
    n = scores.shape[-1]
    centred = scores - scores.mean(axis=-1, keepdims=True)
    m2 = (centred**2).mean(axis=-1)
    m3 = (centred**3).mean(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        g1 = m3 / m2**1.5 * math.sqrt(n * (n - 1.0)) / (n - 2.0)
    return np.where((m2 > 0) & (n >= 3), g1, np.nan)
