"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria with stated runtime budgets assert them; statistical criteria use
fixed seeds so every run is reproducible.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy.special import ndtri

from wcfar.estimators import (
    EstimatorConfig,
    estimate_pfa_worst_case,
    estimate_pfa_zero_effort,
)
from wcfar.inference import PosteriorFactors, e_step, fit, sufficient_stats
from wcfar.model import (
    Hyperparameters,
    marginal_score_samples,
    predict_pfa_closed_form,
    predict_pfa_sampling,
)
from wcfar.score_data import PackedCorpus
from wcfar.special_math import fit_gamma_from_expectations, fit_inv_gamma_from_expectations
from wcfar.streams import RngStream
from wcfar.synthetic import SyntheticSpec, generate_model_corpus

from oracles import (
    closest_of_n_quadrature,
    gamma_fit_objective,
    gamma_moments,
    gamma_objective_grid,
    inv_gamma_fit_objective,
    inv_gamma_moments,
    inv_gamma_objective_grid,
    quadrature_posterior,
)
from test_estimators import joint_halfwidth
from test_inference import packed_single_target

Z99 = float(ndtri(0.995))
THETA = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_acceptance_1_zero_effort_reduction():
    started = time.perf_counter()
    corpus = generate_model_corpus(
        SyntheticSpec(
            theta=Hyperparameters(0.5, 1.0, 4.0, 3.0, 4.0, 4.0),
            t_targets=500,
            n_impostors_per_target=100,
            l_scores_per_pair=20,
            seed=223,
        )
    )
    tau = 1.5
    worst = estimate_pfa_worst_case(corpus, tau, EstimatorConfig(seed=71, n_impostors=1))
    zero = estimate_pfa_zero_effort(corpus, tau, EstimatorConfig(seed=72))
    elapsed = time.perf_counter() - started
    diff = abs(worst.value - zero.value)
    report(
        1,
        "closest-of-1 equals zero effort",
        diff <= 1e-12 and elapsed < 30.0,
        f"|{worst.value:.5f} - {zero.value:.5f}| = {diff:.1e} <= 1e-12, {elapsed:.1f}s < 30s",
    )


def test_acceptance_2_monotone_in_population_size():
    corpus = generate_model_corpus(
        SyntheticSpec(
            theta=THETA,
            t_targets=40,
            n_impostors_per_target=1100,
            l_scores_per_pair=4,
            seed=81,
        )
    )
    tau = 2.0
    sizes = [2**k for k in range(11)]  # 1 .. 1024
    empirical = [
        estimate_pfa_worst_case(corpus, tau, EstimatorConfig(seed=82, n_impostors=n)) for n in sizes
    ]
    model = [
        predict_pfa_closed_form(THETA, tau, EstimatorConfig(seed=83, n_impostors=n, t_outer=10_000))
        for n in sizes
    ]
    # the empirical rates are exact, so they get no slack; the model's are Monte-Carlo
    failures = []
    for label, series in (("empirical", empirical), ("model", model)):
        for prev, curr in zip(series, series[1:]):
            slack = joint_halfwidth(prev, curr) if label == "model" else 0.0
            if curr.value < prev.value - slack:
                failures.append(f"{label} N={curr.n_impostors}")
    spread = empirical[-1].value - empirical[0].value
    report(
        2,
        "rates non-decreasing in N",
        not failures and spread > 0.2,
        f"violations={failures or 'none'}, empirical range "
        f"{empirical[0].value:.3f}->{empirical[-1].value:.3f}, "
        f"model range {model[0].value:.3f}->{model[-1].value:.3f}",
    )


def test_acceptance_3_inference_bound_and_oracle():
    started = time.perf_counter()
    rng = RngStream(91).generator()
    worst_step = math.inf
    for k in range(20):
        theta = Hyperparameters(
            mu0=float(rng.uniform(-1, 1)),
            sigma0_sq=float(rng.uniform(0.3, 2.0)),
            a_sigma=float(rng.uniform(2.5, 8.0)),
            b_sigma=float(rng.uniform(1.0, 6.0)),
            alpha_lambda=float(rng.uniform(2.0, 8.0)),
            beta_lambda=float(rng.uniform(1.0, 6.0)),
        )
        spec = SyntheticSpec(
            theta=theta,
            t_targets=int(rng.integers(5, 40)),
            n_impostors_per_target=int(rng.integers(2, 10)),
            l_scores_per_pair=int(rng.integers(2, 12)),
            seed=int(rng.integers(0, 2**31)),
        )
        trace = fit(generate_model_corpus(spec), max_iter=60, tol=0.0).elbo_trace
        if len(trace) > 1:
            worst_step = min(worst_step, float(np.diff(trace).min()))

    oracle_errors = []
    cases = [
        (Hyperparameters(1.0, 1.0, 6.0, 5.0, 16.0, 8.0), [[1.2, 0.8, 1.0], [2.0, 1.6, 1.9]]),
        (Hyperparameters(1.0, 1.0, 8.0, 7.0, 12.0, 6.0), [[0.4, 1.1, 0.9], [1.5, 2.1]]),
    ]
    for h, pairs in cases:
        data = packed_single_target(pairs)
        q = PosteriorFactors.from_prior(h, data)
        for _ in range(4000):
            before = np.concatenate([q.m_mean, q.pair_mean, q.sigma_scale, q.lam_rate])
            e_step(q, data, h)
            after = np.concatenate([q.m_mean, q.pair_mean, q.sigma_scale, q.lam_rate])
            if np.max(np.abs(after - before)) < 1e-14:
                break
        stats = sufficient_stats(q)
        oracle = quadrature_posterior(pairs, h, n=160)
        oracle_errors.extend(
            [
                abs(stats.m_mean[0] / oracle["m"] - 1.0),
                abs(stats.lam_mean[0] / oracle["lam"] - 1.0),
                abs(stats.inv_sigma[0] / oracle["inv_sigma"] - 1.0),
                abs((q.sigma_scale[0] / (q.sigma_shape[0] - 1.0)) / oracle["sigma_sq"] - 1.0),
                float(np.max(np.abs(stats.pair_mean / oracle["pair_means"] - 1.0))),
            ]
        )
    elapsed = time.perf_counter() - started
    ok = worst_step > -1e-8 and max(oracle_errors) < 0.02 and elapsed < 120.0
    report(
        3,
        "bound monotone and posterior matches quadrature",
        ok,
        f"min ELBO step {worst_step:.2e} > -1e-8, max posterior-mean error "
        f"{max(oracle_errors):.4f} < 0.02, {elapsed:.1f}s < 120s",
    )


def test_acceptance_4_hyperparameter_recovery():
    started = time.perf_counter()
    truth = Hyperparameters(0.5, 1.0, 4.0, 3.0, 4.0, 4.0)
    corpus = generate_model_corpus(
        SyntheticSpec(
            theta=truth, t_targets=500, n_impostors_per_target=50,
            l_scores_per_pair=20, seed=223,
        )
    )
    h = fit(corpus).hyperparameters
    elapsed = time.perf_counter() - started
    mu_err = abs(h.mu0 - truth.mu0)
    mu_tol = 0.05 * math.sqrt(truth.sigma0_sq)
    lam_ratio = (h.alpha_lambda / h.beta_lambda) / (truth.alpha_lambda / truth.beta_lambda)
    sig_ratio = (h.a_sigma / h.b_sigma) / (truth.a_sigma / truth.b_sigma)
    ok = (
        mu_err <= mu_tol
        and abs(lam_ratio - 1.0) <= 0.10
        and abs(sig_ratio - 1.0) <= 0.10
        and elapsed < 60.0
    )
    report(
        4,
        "known-parameter recovery",
        ok,
        f"mu0 err {mu_err:.4f} <= {mu_tol:.4f}, lam-mean ratio {lam_ratio:.4f}, "
        f"inv-variance-mean ratio {sig_ratio:.4f} within 10%, {elapsed:.1f}s < 60s",
    )


def test_acceptance_5_sampling_vs_closed_form():
    # both predictors share every draw, so their gap is the finite-L selection
    # gap, whose expectation the quadrature gives
    started = time.perf_counter()
    tau = 1.5
    gaps = []
    for n in (1, 10, 100, 1000):
        cfg = EstimatorConfig(seed=75, n_impostors=n, t_outer=10_000)
        sampled = predict_pfa_sampling(THETA, tau, cfg, scores_per_pair=324)
        closed = predict_pfa_closed_form(THETA, tau, cfg)
        q = closest_of_n_quadrature
        expected = q(THETA, tau, n, scores_per_pair=324) - q(THETA, tau, n)
        gaps.append((n, sampled.value - closed.value, expected))
    elapsed = time.perf_counter() - started
    ok = all(abs(gap - expected) <= 1e-4 for _, gap, expected in gaps) and elapsed < 10.0
    detail = ", ".join(f"N={n}: |{gap:+.6f} - {expected:+.6f}| <= 1e-4" for n, gap, expected in gaps)
    detail += f", {elapsed:.1f}s < 10s"
    report(5, "sampling agrees with closed form", ok, detail)


def test_acceptance_6_exhaustive_micro_oracle():
    corpus = PackedCorpus.from_groups({"t": {"A": [0.0, 0.0], "B": [1.0, 1.0], "C": [2.0, 2.0]}})
    est = estimate_pfa_worst_case(corpus, 1.5, EstimatorConfig(seed=76, n_impostors=2))
    diff = abs(est.value - 2.0 / 3.0)
    report(
        6,
        "three-impostor enumeration",
        diff <= 1e-12,
        f"|{est.value:.5f} - 2/3| = {diff:.1e} <= 1e-12",
    )


def test_acceptance_7_moment_fitters_beat_grid():
    rng = RngStream(77).generator()
    worst_gap = math.inf
    for _ in range(100):
        shape = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        rate = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        mean, mean_log = gamma_moments(shape, rate)
        fitted = fit_gamma_from_expectations(mean, mean_log)
        best, _, _ = gamma_objective_grid(mean, mean_log, fitted.alpha, fitted.beta)
        worst_gap = min(worst_gap, gamma_fit_objective(fitted, mean, mean_log) - best)

        mean_inv, mean_log = inv_gamma_moments(shape, rate)
        fitted_ig = fit_inv_gamma_from_expectations(mean_inv, mean_log)
        best_ig, _, _ = inv_gamma_objective_grid(mean_inv, mean_log, fitted_ig.a, fitted_ig.b)
        worst_gap = min(worst_gap, inv_gamma_fit_objective(fitted_ig, mean_inv, mean_log) - best_ig)
    report(
        7,
        "solvers beat 200x200 grid oracle",
        worst_gap >= -1e-8,
        f"worst objective gap over 100 moment pairs (both families): {worst_gap:.2e} >= -1e-8",
    )


def test_acceptance_8_marginal_symmetry():
    draws = marginal_score_samples(
        Hyperparameters(0.0, 1.0, 5.0, 4.0, 4.0, 4.0), 10_000_000, RngStream(78)
    )
    centered = draws - draws.mean()
    skew = float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)
    report(
        8,
        "marginal score symmetry",
        abs(skew) <= 0.01,
        f"sample skewness of 1e7 draws = {skew:+.5f}, |.| <= 0.01",
    )


def test_acceptance_9_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus.csv"
    labels = tmp_path / "labels.csv"
    theta = tmp_path / "theta.json"
    sim_spec = tmp_path / "sim.json"
    toy_spec = tmp_path / "toy.json"
    sim_spec.write_text(
        '{"kind": "model", "theta": %s, "t_targets": 10, "n_impostors_per_target": 8,'
        ' "l_scores_per_pair": 6, "seed": 5}' % THETA.to_json().__repr__().replace("'", '"')
    )
    toy_spec.write_text(
        '{"kind": "toy_asv", "embedding_dim": 8, "speaker_spread": 1.0,'
        ' "utterance_noise": 1.0, "n_speakers": 6, "n_utts_per_speaker": 4, "seed": 6}'
    )

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "wcfar.cli", *[str(a) for a in args]],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    cli("simulate", "--spec", sim_spec, "--out", corpus)
    cli("simulate", "--spec", toy_spec, "--out", tmp_path / "toy.csv", "--labeled-out", labels)
    cli("fit", "--corpus", corpus, "--out", theta)

    commands = {
        "threshold-eer": ["threshold", "--labels", labels, "--eer"],
        "threshold-dcf": ["threshold", "--labels", labels, "--dcf", "0.5,1,10"],
        "fit": ["fit", "--corpus", corpus, "--trace", "TRACE"],
        "empirical": [
            "empirical", "--corpus", corpus, "--tau", "1.0", "--n", "1,2,4",
            "--t-outer", "500", "--seed", "11",
        ],
        "predict": [
            "predict", "--theta", theta, "--tau", "1.0", "--n", "1,10,1000",
            "--t-outer", "300", "--seed", "12",
        ],
        "predict-sampling": [
            "predict", "--theta", theta, "--tau", "1.0", "--n", "2", "--t-outer", "100",
            "--seed", "13", "--method", "sampling", "--scores-per-pair", "9",
        ],
        "simulate": ["simulate", "--spec", sim_spec],
        "curve": [
            "curve", "--corpus", corpus, "--theta", theta, "--tau", "op=1.0",
            "--n", "1,4,64", "--t-outer", "200", "--seed", "14",
        ],
        "diagnose": [
            "diagnose", "--corpus", corpus, "--tau", "1.0", "--n-impostors", "3",
            "--t-outer", "300", "--seed", "15",
        ],
    }
    unstable = []
    for name, args in commands.items():
        outputs = []
        for attempt in (0, 1):
            out = tmp_path / f"{name}-{attempt}.out"
            resolved = [out if a == "TRACE" else a for a in args]
            run_args = resolved + ["--out", tmp_path / f"{name}-{attempt}.data"]
            cli(*run_args)
            outputs.append(
                (tmp_path / f"{name}-{attempt}.data").read_bytes()
                + (out.read_bytes() if "TRACE" in args else b"")
            )
        if outputs[0] != outputs[1]:
            unstable.append(name)
    report(
        9,
        "CLI byte-determinism",
        not unstable,
        f"all {len(commands)} commands byte-identical across reruns"
        if not unstable
        else f"unstable: {unstable}",
    )
