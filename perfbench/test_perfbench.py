"""Self-tests for the benchmark: its oracles, its metric list and each
workload at toy size.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import inputs
import oracles
import run

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent


def _brute_force_worst_case(scores, tau, n):
    """Average over every candidate set of the first highest-mean pair's rate."""
    per_target = []
    for pairs in scores:
        means, fa = pairs.mean(axis=1), (pairs > tau).mean(axis=1)
        sets = itertools.combinations(range(len(pairs)), n)
        per_target.append(np.mean([fa[c[int(np.argmax(means[list(c)]))]] for c in sets]))
    return float(np.mean(per_target))


def test_rank_weights_acceptance_6_corpus():
    scores = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    assert oracles.worst_case_expectation(scores, 1.5, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_rank_weights_match_enumeration_with_ties():
    # one decimal place makes tied pair means common
    scores = np.round(np.random.default_rng(5).normal(size=(3, 7, 3)), 1)
    for n in range(1, 8):
        assert oracles.worst_case_expectation(scores, 0.2, n) == pytest.approx(
            _brute_force_worst_case(scores, 0.2, n), abs=1e-12)
        assert oracles.rank_weights(7, n).sum() == pytest.approx(1.0, abs=1e-12)


def test_quadrature_at_n1_matches_direct_2d_integral():
    th, tau = inputs.THETA, 1.5

    # with N = 1 the score is Normal(mu0, sigma0_sq + sigma^2 (1 + 1/lam))
    def integrand(sig_sq, lam):
        sd = math.sqrt(th["sigma0_sq"] + sig_sq * (1.0 + 1.0 / lam))
        return (stats.gamma.pdf(lam, th["alpha_lambda"], scale=1.0 / th["beta_lambda"])
                * stats.invgamma.pdf(sig_sq, th["a_sigma"], scale=th["b_sigma"])
                * stats.norm.sf((tau - th["mu0"]) / sd))

    direct, _ = integrate.dblquad(integrand, 0, np.inf, 0, np.inf)
    assert oracles.closed_form_expectation(th, tau, 1) == pytest.approx(direct, abs=1e-4)


def test_threshold_scan_matches_direct_rates():
    g = np.random.default_rng(6)
    tar, non = np.round(g.normal(1, 1, 40), 1), np.round(g.normal(0, 1, 60), 1)
    taus, p_miss, p_fa = oracles.threshold_scan(tar, non)
    for tau, pm, pf in zip(taus, p_miss, p_fa):
        assert (pm, pf) == pytest.approx(oracles.rates_at(tar, non, tau))
    assert len(taus) == len(np.unique(np.concatenate((tar, non)))) + 1


def test_pair_skewness_matches_scipy():
    x = np.random.default_rng(7).gamma(2.0, size=(4, 5, 9))
    assert np.allclose(oracles.pair_skewness(x), stats.skew(x, axis=-1, bias=False))


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["corpus_wide", "corpus_deep", "extrapolate"])
def test_toy_workload_is_correct(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    *_, detail, last = out.stdout.splitlines()
    result = json.loads(last)
    assert json.loads(detail)["detail"]["error_rate"] == 0.0
    assert (result["correct"], result["failed"]) == (True, 0) and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(PERFBENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "extrapolate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert out.returncode != 0 and out.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
