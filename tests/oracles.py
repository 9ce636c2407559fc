"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: the gamma
family moments and fit objectives use scipy, the grid searches enumerate
objective values directly, the posterior oracle integrates the exact joint
density on a dense grid (with the pair means marginalised in closed form,
which is an identity of Gaussian algebra, not a property of the inference
code), the loop predictors simulate all N candidates of every outer
iteration, the closest-of-N quadrature integrates the predictors'
expectation deterministically, the loop corpus estimators draw a target
and a candidate set per outer iteration, the rank-weight oracle sums
exact rationals with `math.comb`, the grouped corpus is the original
dict-of-lists loader, and the skewness oracle loops over pairs one at a
time.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import stats
from scipy.special import digamma, gammaln, logsumexp, ndtr, ndtri

from wcfar.estimators import EstimateWithCI, confidence_interval
from wcfar.streams import RngStream


def gamma_moments(alpha, beta):
    """E[x] and E[log x] = psi(alpha) - log(beta) of Gamma(alpha, rate=beta)."""
    return alpha / beta, float(digamma(alpha) - np.log(beta))


def inv_gamma_moments(a, b):
    """E[1/x] and E[log x] = log(b) - psi(a) of InvGamma(a, scale=b)."""
    return a / b, float(np.log(b) - digamma(a))


def gamma_fit_objective(p, mean_x, mean_log_x):
    """Per-observation expected log density maximised by `fit_gamma_from_expectations`."""
    return float(
        p.alpha * np.log(p.beta) - gammaln(p.alpha) + (p.alpha - 1.0) * mean_log_x - p.beta * mean_x
    )


def inv_gamma_fit_objective(p, mean_inv_x, mean_log_x):
    """Per-observation expected log density maximised by `fit_inv_gamma_from_expectations`."""
    return float(p.a * np.log(p.b) - gammaln(p.a) - (p.a + 1.0) * mean_log_x - p.b * mean_inv_x)


def gamma_objective_grid(mean_x, mean_log_x, alpha_hat, beta_hat, n=200, decades=2.0):
    """Max of the gamma moment-fit objective over a log-spaced grid.

    The grid spans `decades` decades either side of the point under test.
    Returns (best objective, best alpha, best beta).
    """
    alphas = np.logspace(np.log10(alpha_hat) - decades, np.log10(alpha_hat) + decades, n)
    betas = np.logspace(np.log10(beta_hat) - decades, np.log10(beta_hat) + decades, n)
    a = alphas[:, None]
    b = betas[None, :]
    obj = a * np.log(b) - gammaln(a) + (a - 1.0) * mean_log_x - b * mean_x
    k = np.unravel_index(np.argmax(obj), obj.shape)
    return float(obj[k]), float(alphas[k[0]]), float(betas[k[1]])


def inv_gamma_objective_grid(mean_inv_x, mean_log_x, a_hat, b_hat, n=200, decades=2.0):
    """Max of the inverse-gamma moment-fit objective over a log-spaced grid."""
    shapes = np.logspace(np.log10(a_hat) - decades, np.log10(a_hat) + decades, n)
    scales = np.logspace(np.log10(b_hat) - decades, np.log10(b_hat) + decades, n)
    a = shapes[:, None]
    b = scales[None, :]
    obj = a * np.log(b) - gammaln(a) - (a + 1.0) * mean_log_x - b * mean_inv_x
    k = np.unravel_index(np.argmax(obj), obj.shape)
    return float(obj[k]), float(shapes[k[0]]), float(scales[k[1]])


def log_marginal_pair(scores, m, lam, sigma_sq):
    """log p(scores | m, lam, sigma_sq) with the pair mean integrated out.

    The scores of one pair are jointly Gaussian with mean m and covariance
    sigma_sq * (I + J/lam); the quadratic form and determinant have closed
    forms through the rank-one structure.
    """
    scores = np.asarray(scores, dtype=float)
    count = len(scores)
    s_sum = scores.sum()
    s_sumsq = (scores**2).sum()
    quad = (s_sumsq - 2.0 * m * s_sum + count * m**2) - (s_sum - count * m) ** 2 / (lam + count)
    return (
        -0.5 * count * np.log(2.0 * np.pi * sigma_sq)
        + 0.5 * np.log(lam / (lam + count))
        - quad / (2.0 * sigma_sq)
    )


def quadrature_posterior(pairs, h, n=160):
    """Exact posterior means for a one-target instance by dense integration.

    `pairs` is a list of score arrays; `h` is a Hyperparameters instance.
    Integrates over (m, lam, sigma_sq) on a dense product grid (linear in m,
    logarithmic in the positive variables) and returns the posterior means
    of m, lam, sigma_sq, 1/sigma_sq and each pair mean.
    """
    m_grid = np.linspace(h.mu0 - 8.0 * np.sqrt(h.sigma0_sq), h.mu0 + 8.0 * np.sqrt(h.sigma0_sq), n)
    lam_grid = np.exp(np.linspace(np.log(1e-3), np.log(1e3), n))
    sig_grid = np.exp(np.linspace(np.log(1e-3), np.log(1e3), n))
    m, lam, sig = np.meshgrid(m_grid, lam_grid, sig_grid, indexing="ij")

    log_post = (
        -0.5 * np.log(2.0 * np.pi * h.sigma0_sq)
        - (m - h.mu0) ** 2 / (2.0 * h.sigma0_sq)
        + h.alpha_lambda * np.log(h.beta_lambda)
        - gammaln(h.alpha_lambda)
        + (h.alpha_lambda - 1.0) * np.log(lam)
        - h.beta_lambda * lam
        + h.a_sigma * np.log(h.b_sigma)
        - gammaln(h.a_sigma)
        - (h.a_sigma + 1.0) * np.log(sig)
        - h.b_sigma / sig
    )
    for scores in pairs:
        log_post = log_post + log_marginal_pair(scores, m, lam, sig)
    # integrate in (m, log lam, log sig): multiply by the jacobian lam*sig
    log_post = log_post + np.log(lam) + np.log(sig)
    weight = (
        np.gradient(m_grid)[:, None, None]
        * np.gradient(np.log(lam_grid))[None, :, None]
        * np.gradient(np.log(sig_grid))[None, None, :]
    )
    log_post -= log_post.max()
    density = np.exp(log_post) * weight
    z = density.sum()

    pair_means = []
    for scores in pairs:
        scores = np.asarray(scores, dtype=float)
        conditional = (scores.sum() + lam * m) / (len(scores) + lam)
        pair_means.append(float((density * conditional).sum() / z))
    return {
        "m": float((density * m).sum() / z),
        "lam": float((density * lam).sum() / z),
        "sigma_sq": float((density * sig).sum() / z),
        "inv_sigma": float((density / sig).sum() / z),
        "pair_means": np.asarray(pair_means),
    }


def importance_log_evidence(scores, h, n_draws, seed):
    """Monte-Carlo estimate of log p(scores) for a one-target one-pair instance.

    Draws latents from the prior and averages the likelihood; returns the
    log estimate together with the standard error of the underlying mean on
    the log scale (delta method).
    """
    rng = np.random.default_rng(seed)
    m = rng.normal(h.mu0, np.sqrt(h.sigma0_sq), size=n_draws)
    lam = rng.gamma(h.alpha_lambda, 1.0 / h.beta_lambda, size=n_draws)
    sig = 1.0 / rng.gamma(h.a_sigma, 1.0 / h.b_sigma, size=n_draws)
    log_like = log_marginal_pair(scores, m, lam, sig)
    log_mean = logsumexp(log_like) - np.log(n_draws)
    weights = np.exp(log_like - log_like.max())
    rel_se = weights.std(ddof=1) / (np.sqrt(n_draws) * weights.mean())
    return float(log_mean), float(rel_se)


def _target_draw(h, g):
    """(m, lam, sigma_sq) from their priors, in the order the predictors draw them."""
    m = g.normal(h.mu0, math.sqrt(h.sigma0_sq))
    lam = g.gamma(h.alpha_lambda, scale=1.0 / h.beta_lambda)
    sigma_sq = 1.0 / g.gamma(h.a_sigma, scale=1.0 / h.b_sigma)
    return m, lam, sigma_sq


def _loop_estimate(values, cfg, tau, level):
    value = float(values.mean())
    low, high = confidence_interval(values, level) if values.size >= 2 else (value, value)
    return EstimateWithCI(value, low, high, cfg.t_outer, cfg.n_impostors, tau)


def loop_predict_pfa_sampling(h, tau, cfg, scores_per_pair, level=0.99):
    """Closest-of-N sampling predictor that simulates every candidate set.

    Per outer iteration, from its own child stream: one target draw, N pair
    means, N score sets of `scores_per_pair`; the set with the highest sample
    mean is kept and its fraction of scores above `tau` recorded.  Costs
    O(T N L) time and O(N L) memory.
    """
    n = cfg.n_impostors
    root = RngStream(cfg.seed)
    values = np.empty(cfg.t_outer)
    scores = np.empty((n, scores_per_pair))
    for t in range(cfg.t_outer):
        g = root.child(t).generator()
        m, lam, sigma_sq = _target_draw(h, g)
        mus = g.normal(m, math.sqrt(sigma_sq / lam), size=n)
        g.standard_normal(out=scores)
        scores *= math.sqrt(sigma_sq)
        scores += mus[:, None]
        k = int(np.argmax(scores.mean(axis=1)))
        values[t] = np.mean(scores[k] > tau)
    return _loop_estimate(values, cfg, tau, level)


def loop_predict_pfa_closed_form(h, tau, cfg, level=0.99):
    """Closest-of-N closed-form predictor that draws all N latent pair means.

    Per outer iteration: one target draw, N pair means, and the exact
    Gaussian tail above `tau` for the largest of them.
    """
    root = RngStream(cfg.seed)
    values = np.empty(cfg.t_outer)
    for t in range(cfg.t_outer):
        g = root.child(t).generator()
        m, lam, sigma_sq = _target_draw(h, g)
        mus = g.normal(m, math.sqrt(sigma_sq / lam), size=cfg.n_impostors)
        mu_star = float(np.max(mus))
        values[t] = ndtr((mu_star - tau) / math.sqrt(sigma_sq))
    return _loop_estimate(values, cfg, tau, level)


def loop_draw_pairs(packed, n_impostors, selection, t_outer, stream):
    """Pair index selected at each of `t_outer` outer iterations.

    Each iteration draws a target uniformly, then `n_impostors` of its
    pairs without replacement, and keeps the one with the highest mean
    (ties to the lowest index) or, for ``selection="random"``, a uniform
    one of them.
    """
    g_target = stream.child(0).generator()
    g_impostor = stream.child(1).generator()
    idx = g_target.integers(0, packed.n_targets, size=t_outer)
    starts = packed.target_offsets[:-1]
    pools = packed.pairs_per_target
    means = packed.pair_means()
    if n_impostors == 1:
        u = g_impostor.random(t_outer)
        return starts[idx] + np.floor(u * pools[idx]).astype(np.int64)
    selected = np.empty(t_outer, dtype=np.int64)
    for t in range(t_outer):
        i = idx[t]
        candidates = g_impostor.choice(pools[i], size=n_impostors, replace=False)
        candidates.sort()
        base = starts[i]
        if selection == "random":
            selected[t] = base + candidates[g_impostor.integers(n_impostors)]
        else:
            selected[t] = base + candidates[int(np.argmax(means[base + candidates]))]
    return selected


def loop_estimate_pfa_worst_case(packed, tau, cfg, selection="closest_by_mean", level=0.99):
    """Closest-of-N false alarm rate averaged over `cfg.t_outer` drawn
    candidate sets, with its interval over the outer iterations."""
    selected = loop_draw_pairs(packed, cfg.n_impostors, selection, cfg.t_outer, RngStream(cfg.seed))
    return _loop_estimate(packed.pair_exceed_fraction(tau)[selected], cfg, tau, level)


def loop_diagnose_variances(packed, cfg):
    """Per selection scheme, the variances of the pairs drawn at the outer
    iterations that have one, and the share of iterations that drew a pair
    with fewer than 2 scores: ``{"closest": (variances, share), "random": ...}``.
    """
    root = RngStream(cfg.seed)
    pair_var = packed.pair_variances()
    out = {}
    for label, selection in ((10, "closest_by_mean"), (11, "random")):
        drawn = pair_var[loop_draw_pairs(packed, cfg.n_impostors, selection, cfg.t_outer, root.child(label))]
        kept = drawn[~np.isnan(drawn)]
        out[selection.split("_")[0]] = (kept, 1.0 - kept.size / drawn.size)
    return out


def comb_worst_case(groups, tau, n):
    """Exact closest-of-n false alarm rate of ``{target: {impostor: scores}}``.

    Within a target of P pairs, ranked by mean, highest first, with ties to
    the lower impostor id, the rank-k pair is the closest of n with
    probability C(P-1-k, n-1) / C(P, n).  Summed as exact rationals, and
    rounded once.  Means are Python sums, so the scores should add exactly.
    """
    total = Fraction(0)
    for pairs in groups.values():
        ids = sorted(pairs)
        means = [sum(pairs[i]) / len(pairs[i]) for i in ids]
        order = sorted(range(len(ids)), key=lambda p: (-means[p], p))
        sets = math.comb(len(ids), n)
        for k, p in enumerate(order):
            scores = pairs[ids[p]]
            rate = Fraction(sum(s > tau for s in scores), len(scores))
            total += Fraction(math.comb(len(ids) - 1 - k, n - 1), sets) * rate
    return float(total / len(groups))


def closest_of_n_quadrature(h, tau, n, scores_per_pair=None, nodes=64):
    """Expected closest-of-n false alarm rate by 3-D Gauss-Legendre quadrature.

    Without `scores_per_pair` this is the closed-form predictor's
    expectation E[Phi((mu0 + sigma Z_n / sqrt(lam) - tau) / sqrt(sigma0_sq +
    sigma^2))], with Z_n the maximum of n standard normals (CDF Phi^n) and
    the target location m integrated out analytically.  With L =
    `scores_per_pair` it is the sampling predictor's expectation: the
    winner's sample mean is m + sigma sqrt(1/lam + 1/L) Z_n and each of its
    scores adds a centred residual of variance sigma^2 (1 - 1/L).  lam,
    sigma^2 and Z_n are written as quantile functions of uniforms, and the
    unit cube is integrated on a `nodes`^3 grid.
    """
    inv_l = 0.0 if scores_per_pair is None else 1.0 / scores_per_pair
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    lam = stats.gamma.ppf(u, h.alpha_lambda, scale=1.0 / h.beta_lambda)[:, None, None]
    sig_sq = stats.invgamma.ppf(u, h.a_sigma, scale=h.b_sigma)[None, :, None]
    z = -ndtri(-np.expm1(np.log(u) / n))[None, None, :]
    arg = (h.mu0 - tau + np.sqrt(sig_sq * (1.0 / lam + inv_l)) * z) / np.sqrt(
        h.sigma0_sq + sig_sq * (1.0 - inv_l)
    )
    return float(np.einsum("i,j,k,ijk->", w, w, w, ndtr(arg)))


def grouped_corpus(rows):
    """Pack (target, impostor, score) rows the way the original loader did.

    Rows are grouped into a dict of lists, then targets and the impostors of
    each target are sorted by id, and each pair keeps its row order.
    Returns (target_ids, impostor_ids, target_offsets, pair_target,
    pair_offsets, scores), plus the grouping itself.
    """
    grouped = {}
    for target_id, impostor_id, score in rows:
        grouped.setdefault(target_id, {}).setdefault(impostor_id, []).append(score)
    impostor_ids, target_offsets, pair_target, pair_offsets, scores = [], [0], [], [0], []
    target_ids = sorted(grouped)
    for t, target_id in enumerate(target_ids):
        for impostor_id, values in sorted(grouped[target_id].items()):
            impostor_ids.append(impostor_id)
            pair_target.append(t)
            pair_offsets.append(pair_offsets[-1] + len(values))
            scores.extend(values)
        target_offsets.append(len(pair_target))
    packed = (
        tuple(target_ids),
        tuple(impostor_ids),
        np.array(target_offsets),
        np.array(pair_target, dtype=np.int64),
        np.array(pair_offsets),
        np.array(scores, dtype=float),
    )
    return packed, grouped


def loop_pair_skewness(scores, pair_offsets):
    """Adjusted Fisher-Pearson skewness of each pair, one pair at a time.

    NaN where a pair has fewer than 3 scores or all its scores are equal.
    """
    out = np.full(len(pair_offsets) - 1, np.nan)
    for p in range(len(out)):
        x = np.asarray(scores[pair_offsets[p] : pair_offsets[p + 1]], dtype=float)
        n = len(x)
        if n < 3 or x.max() == x.min():
            continue
        centered = x - x.mean()
        m2 = np.mean(centered**2)
        out[p] = np.mean(centered**3) / m2**1.5 * math.sqrt(n * (n - 1.0)) / (n - 2.0)
    return out
