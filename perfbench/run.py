"""Benchmark of the wcfar command line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_wide --seed 1 --seconds 32 --trace 0

run.py writes the workload's inputs from --seed, then runs the
workload's commands as `python -m wcfar.cli` children (started by
spawner.py), one at a time, in passes until --seconds is spent (at least
MIN_PASSES passes).  Every output is checked against an oracle that does
not use the program.  Times are also expressed in units of a fixed
reference task timed around each child (`reference_s`), which cancels
most of the host's speed drift.  The last stdout line is the result JSON;
the line before it holds per-command medians, quartiles and sample
counts, the failures and the environment.

--trace 1 is a separate run that reports per-layer metrics instead: each
pass also reruns every command in this process with spans around the
calls into each wcfar module (see tracing.py), then once more without
spans to measure what tracing costs.
"""

from __future__ import annotations

import os

# pinned before numpy loads, and inherited by every child
PINNED_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)
os.environ.pop("WCFAR_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
import spawner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 5


def _per_layer() -> dict[str, str]:
    """Every per-layer metric name with its unit, from the full-size shapes."""
    full = workloads.PARAMS["full"]
    empirical_n = sorted({n for w in ("corpus_wide", "corpus_deep") for n in full[w]["empirical_n"]}
                         | {n for n in full["corpus_wide"]["curve_n"] if n <= full["corpus_wide"]["impostors"]})
    closed_n = sorted(set(full["corpus_wide"]["curve_n"]) | set(full["extrapolate"]["closed_n"]))
    sampling_n = full["extrapolate"]["sampling_n"]
    commands = ["simulate", "threshold", "fit", "empirical", "diagnose", "curve", "predict",
                "predict_sampling"]
    units = {
        "score_data.load_corpus_s": "s", "score_data.rows_per_s": "1/s", "score_data.pack_corpus_s": "s",
        "score_data.load_labeled_scores_s": "s", "metrics.eer_threshold_s": "s",
        "metrics.min_dcf_threshold_s": "s", "inference.fit_s": "s", "inference.iterations": "count",
        "inference.s_per_iteration": "s", "inference.moment_init_s": "s", "inference.e_step_s": "s",
        "inference.m_step_s": "s", "inference.elbo_s": "s", "estimators.diagnose_s": "s",
        "streams.generator_us": "us", "synthetic.generate_model_corpus_s": "s",
        "synthetic.generate_toy_asv_corpus_s": "s", "score_data.targets": "count",
        "score_data.pairs": "count", "score_data.scores": "count", "tracing_overhead_s": "s",
    }
    for n in empirical_n:
        units |= {f"estimators.worst_case_s.N{n}": "s", f"estimators.candidates_drawn.N{n}": "count-computed",
                  f"estimators.ci_halfwidth.N{n}": "probability"}
    for n in closed_n:
        units |= {f"model.closed_form_s.N{n}": "s", f"model.ci_halfwidth.N{n}": "probability",
                  f"model.oracle_gap.N{n}": "probability"}
    for n in sampling_n:
        units |= {f"model.sampling_s.N{n}": "s", f"model.sampling_bytes.N{n}": "B-computed"}
    for c in commands:
        units |= {f"cli.{c}_s": "s", f"cli.{c}.self_s": "s", f"streams.generators.{c}": "count"}
    return units


PER_LAYER = _per_layer()
END_TO_END_UNITS = {"setup_s": "s", "pipeline_ref": "ref", "peak_rss_mb": "MB"}


_REFERENCE_DATA = np.random.default_rng(0).normal(size=100_000)


def reference_s() -> float:
    """Seconds for a fixed task that mixes Python and numpy work like the CLI's.

    The host's speed drifts by up to 2x over tens of seconds; a child's
    time divided by this task's time measured around it drifts far less.
    """
    start = time.perf_counter()
    text = ",".join(map(repr, _REFERENCE_DATA[:20_000].tolist()))
    groups: dict[int, list[float]] = {}
    for i, v in enumerate(text.split(",")):
        groups.setdefault(i % 997, []).append(float(v))
    np.add.reduceat(np.sort(_REFERENCE_DATA), np.arange(0, _REFERENCE_DATA.size, 4)).sum()
    return time.perf_counter() - start


class Child:
    """Runs `python -m wcfar.cli` children through spawner.py and keeps their cost."""

    def __init__(self, log: Path):
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py")), str(log)], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.peak_rss_kb = 0
        self.references: list[float] = []

    def run(self, argv: list[str]) -> tuple[float, int, float]:
        """Wall seconds (start-up included), exit code, and the reference
        task's seconds averaged over just before and just after."""
        before = reference_s()
        self.spawner.stdin.write(json.dumps(argv) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        reference = 0.5 * (before + reference_s())
        self.references.append(reference)
        return reply["elapsed"], reply["code"], reference

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=spawner.TIMEOUT_S + 10)
        self.spawner.stdout.close()


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(failures[:3])


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2], "samples": len(values)}


def _git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args, workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "blas_threads": PINNED_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "shapes": workload.shape,
    }


def _run_command(child: Child, cmd, out: Path) -> tuple[float, float, list[str]]:
    """Run every invocation of `cmd`, then check its outputs.

    Returns wall seconds, the same in reference-task units, and failures.
    """
    total, in_ref, failures = 0.0, 0.0, []
    for argv in cmd.invocations(out):
        elapsed, code, reference = child.run(argv)
        total += elapsed
        in_ref += elapsed / reference
        if code != 0:
            failures.append(f"{cmd.name}: exit code {code} for `wcfar {argv[0]}`")
    if not failures:
        try:
            failures = cmd.check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures = [f"{cmd.name}: unreadable output ({type(exc).__name__}: {exc})"]
    return total, in_ref, failures


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _passes(seconds: float, one_pass, min_passes: int):
    """Call `one_pass` until another pass would overrun `seconds`."""
    start, done = time.perf_counter(), 0
    while True:
        one_pass()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed * (done + 1) / done > seconds:
            return


def measure(workload, child: Child, tally: Tally, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and per-command detail."""
    times, in_ref = defaultdict(list), defaultdict(list)
    out = workload.work / "out"

    def one_pass():
        _fresh(out)
        for cmd in workload.commands:
            elapsed, relative, failures = _run_command(child, cmd, out)
            times[cmd.name].append(elapsed)
            in_ref[cmd.name].append(relative)
            tally.record(failures)

    _passes(seconds, one_pass, MIN_PASSES)
    detail = {name: _summary(v) for name, v in times.items()}
    detail |= {f"{name}_ref": _summary(v) for name, v in in_ref.items()}
    detail["pipeline_s"] = sum(detail[c.name]["median"] for c in workload.commands)
    metrics = {
        "pipeline_ref": sum(detail[f"{c.name}_ref"]["median"] for c in workload.commands),
        "peak_rss_mb": child.peak_rss_kb / 1024.0,
    }
    return metrics, detail


def _inprocess(cli, cmd, out: Path) -> list[str]:
    failures = []
    for argv in cmd.invocations(out):
        code = cli.main(argv)
        if code != 0:
            failures.append(f"{cmd.name} in-process: exit code {code}")
    return failures


def _same_outputs(a: Path, b: Path, name: str) -> list[str]:
    files = sorted(p.name for p in a.iterdir())
    if files != sorted(p.name for p in b.iterdir()):
        return [f"{name}: in-process outputs {files} differ from the child's"]
    return [f"{name}: in-process {f} differs from the child's" for f in files
            if (a / f).read_bytes() != (b / f).read_bytes()]


def measure_traced(workload, child: Child, tally: Tally, seconds: float) -> tuple[dict, dict]:
    """Traced run: per-layer metrics, medians over passes."""
    sys.path.insert(0, str(SRC))
    from wcfar import cli

    per_pass: list[dict] = []
    quadrature: dict = {}

    def one_pass():
        # untraced first, so that it does not pay for collecting the spans
        start = time.perf_counter()
        for cmd in workload.commands:
            tally.record(_inprocess(cli, cmd, _fresh(workload.work / "untraced" / cmd.name)))
        untraced = time.perf_counter() - start
        tracer = tracing.Tracer()
        roots, child_s = {}, {}
        for cmd in workload.commands:
            out = _fresh(workload.work / "out" / cmd.name)
            child_s[cmd.name], _, failures = _run_command(child, cmd, out)
            tally.record(failures)
            traced_out = _fresh(workload.work / "traced" / cmd.name)
            roots[cmd.name] = len(tracer.spans)
            with tracing.instrument(tracer):
                failures = tracer.call(f"cli.{cmd.name}", _inprocess, cli, cmd, traced_out)
            tally.record(failures or _same_outputs(traced_out, out, cmd.name))
        metrics = layer_metrics(tracer, roots, child_s, workload.rows, quadrature)
        metrics["tracing_overhead_s"] = sum(tracer.spans[r].duration for r in roots.values()) - untraced
        per_pass.append(metrics)

    _passes(seconds, one_pass, MIN_TRACED_PASSES)
    result = {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in PER_LAYER}
    return result, {"passes": len(per_pass)}


def layer_metrics(tr, roots: dict, child_s: dict, rows: int, quadrature: dict) -> dict:
    """One pass's per-layer metrics from its spans.

    Time metrics are layer-self seconds summed over the pass; per-N
    half-widths and oracle gaps are medians over the calls at that N.
    """
    m: dict[str, float] = defaultdict(float)
    calls = defaultdict(list)
    for cmd, root in roots.items():
        library = sum(tr.spans[c].duration for c in tr.spans[root].children)
        m[f"cli.{cmd}_s"] = child_s[cmd]
        m[f"cli.{cmd}.self_s"] = child_s[cmd] - library
        generators = 0
        for i in tr.descendants(root):
            calls[tr.spans[i].name].append(i)
            generators += tr.spans[i].name == "streams.generator"
        m[f"streams.generators.{cmd}"] = generators

    def busy(name):
        return sum(tr.layer_self(i) for i in calls[name])

    for name in ("score_data.load_corpus", "score_data.pack_corpus", "score_data.load_labeled_scores",
                 "metrics.eer_threshold", "metrics.min_dcf_threshold", "inference.fit",
                 "inference.moment_init", "inference.e_step", "inference.m_step", "inference.elbo",
                 "estimators.diagnose", "synthetic.generate_model_corpus",
                 "synthetic.generate_toy_asv_corpus"):
        m[f"{name}_s"] = busy(name)
    loads = len(calls["score_data.load_corpus"])
    if loads:
        m["score_data.rows_per_s"] = rows * loads / m["score_data.load_corpus_s"]
    iterations = sum(tr.spans[i].attrs.get("iterations", 0) for i in calls["inference.fit"])
    m["inference.iterations"] = iterations
    if iterations:
        m["inference.s_per_iteration"] = m["inference.fit_s"] / iterations
    for i in calls["score_data.pack_corpus"][-1:]:
        m |= {f"score_data.{k}": v for k, v in tr.spans[i].attrs.items()}
    if calls["streams.generator"]:
        m["streams.generator_us"] = 1e6 * statistics.median(
            tr.spans[i].duration for i in calls["streams.generator"])

    spread = defaultdict(list)
    for name, prefix in (("estimators.worst_case", "estimators"), ("model.closed_form", "model"),
                         ("model.sampling", "model")):
        for i in calls[name]:
            a = tr.spans[i].attrs
            if not a:
                continue
            n = a["n"]
            if name == "estimators.worst_case":
                m[f"estimators.worst_case_s.N{n}"] += tr.layer_self(i)
                m[f"estimators.candidates_drawn.N{n}"] += a["n"] * a["t"]
            elif name == "model.sampling":
                m[f"model.sampling_s.N{n}"] += tr.layer_self(i)
                m[f"model.sampling_bytes.N{n}"] += a["t"] * n * a["l"] * 8
            else:
                m[f"model.closed_form_s.N{n}"] += tr.layer_self(i)
                key = (tuple(sorted(a["theta"].items())), a["tau"], n)
                if key not in quadrature:
                    quadrature[key] = oracles.closed_form_expectation(a["theta"], a["tau"], n)
                spread[f"model.oracle_gap.N{n}"].append(abs(a["value"] - quadrature[key]))
            spread[f"{prefix}.ci_halfwidth.N{n}"].append(a["halfwidth"])
    m |= {name: statistics.median(v) for name, v in spread.items()}
    return dict(m)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(workloads.PARAMS), default="full",
                        help="input shapes; 'toy' is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "wcfar" / "cli.py").is_file():
        print(f"error: no wcfar sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    child = None
    try:
        _fresh(work)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
        child = Child(work / "stderr.log")
        tally = Tally()
        setup, startup = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            elapsed, code, _ = child.run(["--version"])  # warm-up: imports and page cache
            setup.append(time.perf_counter() - start)
            startup.append(elapsed)
            tally.record([] if code == 0 else [f"warm-up: exit code {code}"])
        workload.prepare()
        if args.trace:
            metrics, detail = measure_traced(workload, child, tally, args.seconds)
            units = PER_LAYER
        else:
            metrics, detail = measure(workload, child, tally, args.seconds)
            metrics["setup_s"] = statistics.median(setup)
            units = END_TO_END_UNITS
        detail |= {
            "setup": _summary(setup),
            "startup": _summary(startup),
            "reference_s": _summary(child.references),
            "error_rate": tally.failed / tally.attempted,
            "failures": tally.messages,
            "environment": _environment(args, workload),
        }
    finally:
        if child is not None:
            child.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for msg in tally.messages:
        print(msg, file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
