"""The three workloads: their inputs, CLI invocations and output checks.

Each workload writes its inputs from the seed (`setup`), computes its
oracle values once (`prepare`), and lists commands.  A command is one or
more `wcfar` invocations writing into an output directory, plus a check
that reads those outputs and returns failure messages (empty when correct).

Monte-Carlo estimates may differ from their oracle by MC_TOLERANCE times
their own 99% confidence half-width (about 5 standard errors).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles

MC_TOLERANCE = 2.0
FLOAT_RTOL = 1e-7
DCF = (0.01, 1.0, 1.0)

# Shapes are scaled from the reference shapes (1000 x 250 x 4 model corpus,
# 100 speakers x 12 utterances, T = 1e4 / 2000 / 1000) so that one pass
# fits several times into a run, keeping the ratios that make each
# workload's point: 250 impostors x 4 scores per target on the wide
# corpus, 144 scores per pair on the deep one with 25x fewer pairs and
# more scores than the wide one, and every outer-iteration count a quarter.
PARAMS = {
    "full": {
        "corpus_wide": dict(
            targets=128, impostors=250, scores=4, tau=1.5, taus={"lo": 1.5, "hi": 2.5},
            empirical_n=[1, 16, 64, 250], empirical_t=2500, diagnose_n=64, diagnose_t=250,
            curve_n=[1, 16, 64, 250, 1000, 10000], curve_t=500,
        ),
        "corpus_deep": dict(
            speakers=36, utts=12, empirical_n=[1, 4, 16, 35], empirical_t=2500,
            diagnose_n=16, diagnose_t=250,
        ),
        "extrapolate": dict(
            tau=1.5, closed_n=[1, 64, 1000, 100000], closed_t=500,
            sampling_n=[1, 64, 1000], sampling_t=250, scores_per_pair=324,
        ),
    },
    "toy": {
        "corpus_wide": dict(
            targets=32, impostors=250, scores=4, tau=1.5, taus={"lo": 1.5, "hi": 2.5},
            empirical_n=[1, 4, 250], empirical_t=300, diagnose_n=8, diagnose_t=50,
            curve_n=[1, 4, 250, 1000], curve_t=100,
        ),
        "corpus_deep": dict(
            speakers=6, utts=4, empirical_n=[1, 2, 5], empirical_t=300, diagnose_n=2, diagnose_t=50,
        ),
        "extrapolate": dict(
            tau=1.5, closed_n=[1, 64, 1000], closed_t=100, sampling_n=[1, 8], sampling_t=50,
            scores_per_pair=324,
        ),
    },
}


@dataclass
class Command:
    name: str
    invocations: Callable[[Path], list[list[str]]]
    check: Callable[[Path], list[str]]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mc_check(label: str, row: dict, oracle: float) -> list[str]:
    value, low, high = float(row["estimate"]), float(row["ci_low"]), float(row["ci_high"])
    allowed = MC_TOLERANCE * max(value - low, high - value) + 1e-9
    if not (low <= value <= high) or abs(value - oracle) > allowed:
        return [f"{label}: estimate {value} [{low}, {high}] vs oracle {oracle:.6g} (allowed {allowed:.3g})"]
    return []


def _close(label: str, got, want) -> list[str]:
    if got is None or not math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=1e-12):
        return [f"{label}: {got} != {want}"]
    return []


def _check_estimates(path: Path, n_list: list[int], oracle: dict[int, float], label: str) -> list[str]:
    rows = _csv_rows(path)
    if [int(r["N"]) for r in rows] != n_list:
        return [f"{label}: rows for N={[r['N'] for r in rows]}, expected {n_list}"]
    return [msg for r in rows for msg in _mc_check(f"{label} N={r['N']}", r, oracle[int(r["N"])])]


def _check_csv_shape(path: Path, header: str, rows: int, label: str) -> list[str]:
    data = path.read_bytes()
    first, got = data[: data.find(b"\n")].decode(), data.count(b"\n") - 1
    if first != header or got != rows:
        return [f"{label}: header {first!r}, {got} rows; expected {header!r}, {rows} rows"]
    return []


class Workload:
    """Base: a work directory, seeded inputs and a list of commands."""

    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.p = PARAMS[size][self.name]
        self.work = work
        self.commands: list[Command] = []

    def path(self, name: str) -> str:
        return str(self.work / name)

    @property
    def rows(self) -> int:
        """Corpus rows every corpus command loads (0 without a corpus)."""
        return 0

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        """Compute the oracle values; not timed."""


class CorpusWide(Workload):
    """Model corpus where work per pair dominates."""

    name = "corpus_wide"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        p = self.p
        corpus, theta = self.path("corpus.csv"), self.path("theta.json")
        taus = [f"--tau={k}={v}" for k, v in p["taus"].items()]
        self.commands = [
            Command("simulate", lambda o: [["simulate", "--spec", self.path("spec.json"),
                                            "--out", str(o / "sim.csv")]], self.check_simulate),
            Command("fit", lambda o: [["fit", "--corpus", corpus, "--out", str(o / "fit.json")]],
                    self.check_fit),
            Command("empirical", lambda o: [[
                "empirical", "--corpus", corpus, "--tau", str(p["tau"]),
                "--n", ",".join(map(str, p["empirical_n"])), "--t-outer", str(p["empirical_t"]),
                "--seed", str(self.seed), "--out", str(o / "empirical.csv")]], self.check_empirical),
            Command("diagnose", lambda o: [[
                "diagnose", "--corpus", corpus, "--tau", str(p["tau"]),
                "--n-impostors", str(p["diagnose_n"]), "--t-outer", str(p["diagnose_t"]),
                "--seed", str(self.seed), "--out", str(o / "diagnose.json")]], self.check_diagnose),
            Command("curve", lambda o: [[
                "curve", "--corpus", corpus, "--theta", theta, *taus,
                "--n", ",".join(map(str, p["curve_n"])), "--t-outer", str(p["curve_t"]),
                "--seed", str(self.seed), "--out", str(o / "curve.csv")]], self.check_curve),
        ]

    @property
    def shape(self):
        return {"targets": self.p["targets"], "pairs": self.p["targets"] * self.p["impostors"],
                "scores": self.rows, "scores_per_pair": self.p["scores"]}

    @property
    def rows(self):
        return self.p["targets"] * self.p["impostors"] * self.p["scores"]

    def setup(self):
        p = self.p
        self.corpus, self.latents = inputs.model_corpus(self.seed, p["targets"], p["impostors"], p["scores"])
        inputs.write_corpus_csv(self.corpus, self.work / "corpus.csv")
        inputs.write_json(inputs.THETA, self.work / "theta.json")
        inputs.write_json({"kind": "model", "theta": inputs.THETA, "t_targets": p["targets"],
                           "n_impostors_per_target": p["impostors"], "l_scores_per_pair": p["scores"],
                           "seed": self.seed}, self.work / "spec.json")

    def prepare(self):
        p, s = self.p, self.corpus.scores
        taus = {p["tau"], *p["taus"].values()}
        cap = p["impostors"]
        self.worst = {(tau, n): oracles.worst_case_expectation(s, tau, n)
                      for tau in taus for n in set(p["empirical_n"]) | {n for n in p["curve_n"] if n <= cap}}
        self.model = {(tau, n): oracles.closed_form_expectation(inputs.THETA, tau, n)
                      for tau in p["taus"].values() for n in p["curve_n"]}
        self.skew = skew_oracle(s)

    def check_simulate(self, o):
        return _check_csv_shape(o / "sim.csv", "target_id,impostor_id,score", self.rows, "simulate")

    def check_fit(self, o):
        h = json.loads((o / "fit.json").read_text())
        lat = self.latents
        mu_err = abs(h["mu0"] - lat.m.mean())
        lam_ratio = (h["alpha_lambda"] / h["beta_lambda"]) / lat.lam.mean()
        sig_ratio = (h["a_sigma"] / h["b_sigma"]) / np.mean(1.0 / lat.sigma_sq)
        # acceptance 4's tolerances, against the per-target draws this corpus
        # was made from rather than the prior they were drawn from
        if mu_err > 0.05 * math.sqrt(inputs.THETA["sigma0_sq"]) or abs(lam_ratio - 1) > 0.1 \
                or abs(sig_ratio - 1) > 0.1:
            return [f"fit: mu0 err {mu_err:.4f}, lam-mean ratio {lam_ratio:.4f}, "
                    f"inv-variance-mean ratio {sig_ratio:.4f}"]
        return []

    def check_empirical(self, o):
        oracle = {n: self.worst[(self.p["tau"], n)] for n in self.p["empirical_n"]}
        return _check_estimates(o / "empirical.csv", self.p["empirical_n"], oracle, "empirical")

    def check_diagnose(self, o):
        return check_diagnose_report(o / "diagnose.json", self.skew, self.p)

    def check_curve(self, o):
        rows = _csv_rows(o / "curve.csv")
        expected = [(n, label, src) for label in self.p["taus"] for n in self.p["curve_n"]
                    for src in (("empirical", "model") if n <= self.p["impostors"] else ("model",))]
        got = [(int(r["N"]), r["tau_label"], r["source"]) for r in rows]
        if got != expected:
            return [f"curve: rows {got[:6]}..., expected {expected[:6]}..."]
        failures = []
        for r in rows:
            tau, n = self.p["taus"][r["tau_label"]], int(r["N"])
            table = self.worst if r["source"] == "empirical" else self.model
            failures += _mc_check(f"curve {r['source']} {r['tau_label']} N={n}", r, table[(tau, n)])
        return failures


def skew_oracle(scores: np.ndarray) -> tuple[float, float, int]:
    """(mean per-pair skewness, skewness of the pair means, pairs without one)."""
    per_pair = oracles.pair_skewness(scores).reshape(-1)
    pair_means = scores.mean(axis=2).reshape(-1)
    return (float(np.nanmean(per_pair)), float(oracles.pair_skewness(pair_means)),
            int(np.isnan(per_pair).sum()))


def check_diagnose_report(path: Path, skew: tuple[float, float, int], p: dict) -> list[str]:
    rep = json.loads(path.read_text())
    failures = _close("diagnose avg_pairwise_skewness", rep["avg_pairwise_skewness"], skew[0])
    failures += _close("diagnose pair_mean_skewness", rep["pair_mean_skewness"], skew[1])
    echo = (rep["skewness_excluded_pairs"], rep["n_impostors"], rep["t_outer"])
    if echo != (skew[2], p["diagnose_n"], p["diagnose_t"]):
        failures.append(f"diagnose: excluded pairs, N, T = {echo}")
    return failures


class CorpusDeep(Workload):
    """Toy-ASV corpus where work per score dominates; the only threshold user."""

    name = "corpus_deep"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        p = self.p
        corpus, thr = self.path("corpus.csv"), self.path("threshold.json")
        dcf = ",".join(map(str, DCF))
        self.commands = [
            Command("simulate", lambda o: [[
                "simulate", "--spec", self.path("spec.json"), "--out", str(o / "sim.csv"),
                "--labeled-out", str(o / "sim_labeled.csv")]], self.check_simulate),
            Command("threshold", lambda o: [
                ["threshold", "--labels", self.path("labeled.csv"), "--dcf", dcf, "--out", str(o / "dcf.json")],
                ["threshold", "--labels", self.path("labeled.csv"), "--eer", "--out", str(o / "eer.json")],
            ], self.check_threshold),
            Command("fit", lambda o: [["fit", "--corpus", corpus, "--out", str(o / "fit.json")]],
                    self.check_fit),
            Command("empirical", lambda o: [[
                "empirical", "--corpus", corpus, "--threshold", thr,
                "--n", ",".join(map(str, p["empirical_n"])), "--t-outer", str(p["empirical_t"]),
                "--seed", str(self.seed), "--out", str(o / "empirical.csv")]], self.check_empirical),
            Command("diagnose", lambda o: [[
                "diagnose", "--corpus", corpus, "--threshold", thr,
                "--n-impostors", str(p["diagnose_n"]), "--t-outer", str(p["diagnose_t"]),
                "--seed", str(self.seed), "--out", str(o / "diagnose.json")]], self.check_diagnose),
        ]

    @property
    def shape(self):
        k, u = self.p["speakers"], self.p["utts"]
        return {"targets": k, "pairs": k * (k - 1), "scores": self.rows, "scores_per_pair": u * u,
                "labeled_target": k * u * (u - 1) // 2, "labeled_nontarget": k * (k - 1) // 2 * u * u}

    @property
    def rows(self):
        k, u = self.p["speakers"], self.p["utts"]
        return k * (k - 1) * u * u

    def setup(self):
        p = self.p
        self.corpus, self.target, self.nontarget = inputs.toy_asv_corpus(self.seed, p["speakers"], p["utts"])
        inputs.write_corpus_csv(self.corpus, self.work / "corpus.csv")
        inputs.write_labeled_csv(self.target, self.nontarget, self.work / "labeled.csv")
        # the operating point comes from the benchmark's own EER scan, so no
        # program output feeds another command's input
        taus, self.p_miss, self.p_fa = oracles.threshold_scan(self.target, self.nontarget)
        self.tau = float(taus[np.argmin(np.abs(self.p_fa - self.p_miss))])
        inputs.write_json({"tau": self.tau}, self.work / "threshold.json")
        inputs.write_json({"kind": "toy_asv", "embedding_dim": 64, "speaker_spread": 1.0,
                           "utterance_noise": 1.5, "n_speakers": p["speakers"],
                           "n_utts_per_speaker": p["utts"], "seed": self.seed}, self.work / "spec.json")

    def prepare(self):
        s = self.corpus.scores
        self.worst = {n: oracles.worst_case_expectation(s, self.tau, n) for n in self.p["empirical_n"]}
        self.skew = skew_oracle(s)

    def check_simulate(self, o):
        shape = self.shape
        return _check_csv_shape(o / "sim.csv", "target_id,impostor_id,score", self.rows, "simulate") + \
            _check_csv_shape(o / "sim_labeled.csv", "label,score",
                             shape["labeled_target"] + shape["labeled_nontarget"], "simulate --labeled-out")

    def check_threshold(self, o):
        failures = []
        for kind in ("dcf", "eer"):
            out = json.loads((o / f"{kind}.json").read_text())
            p_miss, p_fa = oracles.rates_at(self.target, self.nontarget, out["tau"])
            if kind == "dcf":
                got, best = oracles.dcf(p_miss, p_fa, *DCF), oracles.dcf(self.p_miss, self.p_fa, *DCF).min()
                metric = got
            else:
                got, best = abs(p_fa - p_miss), np.abs(self.p_fa - self.p_miss).min()
                metric = 0.5 * (p_fa + p_miss)
            if got > best + 1e-12:
                failures.append(f"threshold {kind}: tau {out['tau']} scores {got}, scan minimum {best}")
            failures += _close(f"threshold {kind} metric_value", out["metric_value"], metric)
        return failures

    def check_fit(self, o):
        h = json.loads((o / "fit.json").read_text())
        values = [h[k] for k in inputs.THETA]
        if not h.get("converged") or not all(map(math.isfinite, values)) or min(values[1:]) <= 0:
            return [f"fit: {h}"]
        return []

    def check_empirical(self, o):
        return _check_estimates(o / "empirical.csv", self.p["empirical_n"], self.worst, "empirical")

    def check_diagnose(self, o):
        return check_diagnose_report(o / "diagnose.json", self.skew, self.p)


class Extrapolate(Workload):
    """No corpus: model predictions only."""

    name = "extrapolate"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        p = self.p
        common = ["--theta", self.path("theta.json"), "--tau", str(p["tau"]), "--seed", str(self.seed)]
        self.commands = [
            Command("predict", lambda o: [[
                "predict", *common, "--method", "closed", "--n", ",".join(map(str, p["closed_n"])),
                "--t-outer", str(p["closed_t"]), "--out", str(o / "closed.csv")]],
                lambda o: _check_estimates(o / "closed.csv", p["closed_n"], self.model, "predict closed")),
            Command("predict_sampling", lambda o: [[
                "predict", *common, "--method", "sampling", "--n", ",".join(map(str, p["sampling_n"])),
                "--t-outer", str(p["sampling_t"]), "--scores-per-pair", str(p["scores_per_pair"]),
                "--out", str(o / "sampling.csv")]],
                lambda o: _check_estimates(o / "sampling.csv", p["sampling_n"], self.model, "predict sampling")),
        ]

    @property
    def shape(self):
        return {"targets": 0, "pairs": 0, "scores": 0}

    def setup(self):
        inputs.write_json(inputs.THETA, self.work / "theta.json")

    def prepare(self):
        ns = set(self.p["closed_n"]) | set(self.p["sampling_n"])
        self.model = {n: oracles.closed_form_expectation(inputs.THETA, self.p["tau"], n) for n in ns}


WORKLOADS = {w.name: w for w in (CorpusWide, CorpusDeep, Extrapolate)}
