"""Command line client tying the pipeline together.

Subcommands: threshold, fit, empirical, predict, simulate, curve, diagnose.
Data goes to stdout or --out; messages go to stderr.  Exit codes: 0 on
success, 1 on user errors (bad arguments, unreadable or malformed files,
inconsistent configuration), 2 on numerical failures.  All commands are
deterministic for a fixed --seed (default from $WCFAR_SEED, else 0).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericError
from .estimators import (
    EstimateWithCI,
    EstimatorConfig,
    diagnose,
    estimate_pfa_worst_case,
)
from .inference import fit
from .metrics import DcfParams, eer_threshold, min_dcf_threshold
from .model import (
    DEFAULT_SCORES_PER_PAIR,
    Hyperparameters,
    predict_pfa_closed_form,
    predict_pfa_sampling,
)
from .score_data import FORMAT_BY_SUFFIX, load_corpus, load_labeled_scores
from .synthetic import SyntheticSpec, ToyAsvSpec, generate_model_corpus, generate_toy_asv_corpus

SEED_ENV_VAR = "WCFAR_SEED"

_CHUNK_ROWS = 1 << 16  # lines per string written by `_score_lines`


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    """Serialise a float with enough digits to round-trip exactly."""
    return format(float(x), ".17g")


def _seed(text: str) -> int:
    """argparse type of --seed; its string default $WCFAR_SEED is converted only when used."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--seed or ${SEED_ENV_VAR} is not an integer: {text!r}")


def _write_text(text, out_path: str | None):
    """Write `text`, a string or an iterable of strings, to `out_path` or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)


def _score_lines(header: str, prefixes: list[str], counts: list[int], scores):
    """`header`, then one ``<prefix><score>`` line per score, `_CHUNK_ROWS` lines per string.

    Each of `prefixes` holds leading cells, comma included, and starts the
    next `counts` lines.  Scores are formatted as `_fmt` formats them.
    """
    prefixes = chain.from_iterable(map(repeat, prefixes, counts))
    yield header
    for start in range(0, len(scores), _CHUNK_ROWS):
        chunk = scores[start : start + _CHUNK_ROWS].tolist()
        cells = chain.from_iterable(zip(islice(prefixes, len(chunk)), chunk))
        yield ("%s%.17g\n" * len(chunk)) % tuple(cells)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError("empty population-size list")
    return values


def _parse_dcf(text: str) -> DcfParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected p_target,c_miss,c_fa, got {text!r}")
    return DcfParams(p_target=float(parts[0]), c_miss=float(parts[1]), c_fa=float(parts[2]))


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path} is not a JSON file: {exc}") from None


def _load_theta(path: str) -> Hyperparameters:
    return Hyperparameters.from_json(_read_json(path))


def _spec(cls, obj: dict):
    """Build a spec dataclass; a TypeError from a bad key or value is a user error."""
    try:
        return cls(**obj)
    except TypeError as exc:
        raise ValueError(f"bad simulation spec: {exc}") from None


def _load_corpus(args):
    """`load_corpus` on --corpus, with a format that cannot be inferred reported in terms of --format."""
    fmt = args.format or FORMAT_BY_SUFFIX.get(Path(args.corpus).suffix.lower())
    if fmt is None:
        raise ValueError(
            f"cannot infer the format of {args.corpus} from its suffix; pass --format csv or --format jsonl"
        )
    return load_corpus(args.corpus, format=fmt)


def _resolve_tau(args) -> float:
    if getattr(args, "tau", None) is not None:
        return args.tau
    if getattr(args, "threshold", None) is not None:
        with open(args.threshold) as fh:
            try:
                return float(json.load(fh)["tau"])
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    f"threshold file {args.threshold} must hold a JSON object with a numeric 'tau'"
                ) from None
    raise ValueError("one of --tau or --threshold is required")


def _estimate_csv(rows: list[tuple[int, EstimateWithCI]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "estimate", "ci_low", "ci_high"])
    for n, est in rows:
        writer.writerow([n, _fmt(est.value), _fmt(est.ci_low), _fmt(est.ci_high)])
    return buf.getvalue()


# ---------------------------------------------------------------- commands


def cmd_threshold(args) -> int:
    labeled = load_labeled_scores(args.labels)
    if args.eer:
        spec, metric = eer_threshold(labeled)
    else:
        spec, metric = min_dcf_threshold(labeled, args.dcf)
    payload = {
        "tau": spec.tau,
        "metric_value": metric,
        "provenance": spec.provenance,
        "degenerate": spec.degenerate,
    }
    if spec.dcf_params is not None:
        payload["dcf_params"] = asdict(spec.dcf_params)
    _write_text(_json_dump(payload), args.out)
    return 0


def cmd_fit(args) -> int:
    corpus = _load_corpus(args)
    init = _load_theta(args.init) if args.init else None
    report = fit(corpus, init=init, tol=args.tol, max_iter=args.max_iter)
    theta = report.hyperparameters
    for item in args.override or []:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"override must look like name=value, got {item!r}")
        theta = theta.replace(**{key.strip(): float(value)})
    payload = theta.to_json()
    payload["converged"] = report.converged
    payload["iterations"] = report.iterations
    _write_text(_json_dump(payload), args.out)
    if args.trace:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["iteration", "elbo"])
        for i, value in enumerate(report.elbo_trace, start=1):
            writer.writerow([i, _fmt(value)])
        _write_text(buf.getvalue(), args.trace)
    if not report.converged:
        print(f"warning: EM stopped at max_iter={args.max_iter} before converging", file=sys.stderr)
    return 0


def cmd_empirical(args) -> int:
    corpus = _load_corpus(args)
    tau = _resolve_tau(args)
    rows = []
    for n in _parse_int_list(args.n):
        cfg = EstimatorConfig(seed=args.seed, n_impostors=n, t_outer=args.t_outer)
        rows.append((n, estimate_pfa_worst_case(corpus, tau, cfg)))
    _write_text(_estimate_csv(rows), args.out)
    return 0


def _predict(args, theta: Hyperparameters, tau: float, n: int) -> EstimateWithCI:
    cfg = EstimatorConfig(seed=args.seed, n_impostors=n, t_outer=args.t_outer)
    if args.method == "sampling":
        return predict_pfa_sampling(theta, tau, cfg, scores_per_pair=args.scores_per_pair)
    return predict_pfa_closed_form(theta, tau, cfg)


def cmd_predict(args) -> int:
    theta = _load_theta(args.theta)
    tau = _resolve_tau(args)
    rows = [(n, _predict(args, theta, tau, n)) for n in _parse_int_list(args.n)]
    _write_text(_estimate_csv(rows), args.out)
    return 0


def cmd_simulate(args) -> int:
    spec_obj = _read_json(args.spec)
    if not isinstance(spec_obj, dict):
        raise ValueError(f"spec {args.spec} must hold a JSON object")
    kind = spec_obj.pop("kind", "model")
    if kind == "model":
        if "theta" in spec_obj:
            spec_obj["theta"] = Hyperparameters.from_json(spec_obj["theta"])
        corpus = generate_model_corpus(_spec(SyntheticSpec, spec_obj))
        labeled = None
    elif kind == "toy_asv":
        corpus, labeled = generate_toy_asv_corpus(_spec(ToyAsvSpec, spec_obj))
    else:
        raise ValueError(f"unknown simulation kind {kind!r}; expected 'model' or 'toy_asv'")

    # generated ids hold only letters, digits and underscores: no cell needs CSV quoting
    pair_prefix = [
        f"{corpus.target_ids[t]},{impostor_id},"
        for t, impostor_id in zip(corpus.pair_target.tolist(), corpus.impostor_ids)
    ]
    counts = corpus.pair_count.tolist()
    _write_text(_score_lines("target_id,impostor_id,score\n", pair_prefix, counts, corpus.scores), args.out)

    if args.labeled_out:
        if labeled is None:
            raise ValueError("--labeled-out is only available for kind 'toy_asv'")
        counts = [labeled.target_scores.size, labeled.nontarget_scores.size]
        scores = np.concatenate((labeled.target_scores, labeled.nontarget_scores))
        lines = _score_lines("label,score\n", ["target,", "nontarget,"], counts, scores)
        _write_text(lines, args.labeled_out)
    return 0


def cmd_curve(args) -> int:
    packed = _load_corpus(args)
    theta = _load_theta(args.theta)
    taus = []
    for item in args.tau:
        label, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--tau must look like label=value, got {item!r}")
        taus.append((label.strip(), float(value)))
    n_list = _parse_int_list(args.n)
    if sorted(n_list) != n_list:
        raise ValueError("population sizes must be ascending")
    capacity = int(packed.pairs_per_target.min())

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "tau_label", "tau", "source", "estimate", "ci_low", "ci_high"])
    for label, tau in taus:
        for n in n_list:
            if n <= capacity:
                cfg = EstimatorConfig(seed=args.seed, n_impostors=n, t_outer=args.t_outer)
                est = estimate_pfa_worst_case(packed, tau, cfg)
                writer.writerow(
                    [n, label, _fmt(tau), "empirical", _fmt(est.value), _fmt(est.ci_low), _fmt(est.ci_high)]
                )
            est = _predict(args, theta, tau, n)
            writer.writerow(
                [n, label, _fmt(tau), "model", _fmt(est.value), _fmt(est.ci_low), _fmt(est.ci_high)]
            )
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_diagnose(args) -> int:
    corpus = _load_corpus(args)
    tau = _resolve_tau(args)
    cfg = EstimatorConfig(seed=args.seed, n_impostors=args.n_impostors, t_outer=args.t_outer)
    report = diagnose(corpus, tau, cfg)
    _write_text(_json_dump(report.to_json()), args.out)
    return 0


# ---------------------------------------------------------------- wiring


def _add_common_io(sub):
    sub.add_argument("--corpus", required=True, help="trial corpus file")
    sub.add_argument("--format", choices=["csv", "jsonl"], default=None,
                     help="corpus format (default: inferred from suffix)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_tau_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", type=float, default=None, help="operating threshold")
    group.add_argument("--threshold", default=None,
                       help="JSON file with a 'tau' key, as written by `threshold`")


def _add_model_options(sub):
    sub.add_argument("--t-outer", type=int, default=1000)
    sub.add_argument("--seed", type=_seed, default=os.environ.get(SEED_ENV_VAR, "0"))
    sub.add_argument("--scores-per-pair", type=int, default=DEFAULT_SCORES_PER_PAIR,
                     help="scores per candidate set for the sampling method")
    sub.add_argument("--method", choices=["closed", "sampling"], default="closed")


def _add_unused_mc_options(sub):
    """--t-outer and --seed of the exact corpus commands: checked, not used."""
    unused = "unused: the corpus rates are exact; accepted so existing command lines still run"
    sub.add_argument("--t-outer", type=int, default=1000, help=unused)
    sub.add_argument("--seed", type=_seed, default=os.environ.get(SEED_ENV_VAR, "0"), help=unused)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wcfar", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("threshold", parents=[], help="calibrate an operating threshold",
                        description="Pick tau from labelled scores by EER or minimum detection cost.")
    p.add_argument("--labels", required=True, help="CSV with header label,score")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eer", action="store_true", help="equal error rate threshold")
    mode.add_argument("--dcf", type=_parse_dcf, default=None, metavar="P,CMISS,CFA",
                      help="minimum detection cost parameters")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_threshold)

    p = subs.add_parser("fit", help="fit model hyper-parameters to a corpus",
                        description="Variational EM fit; writes hyper-parameter JSON.")
    _add_common_io(p)
    p.add_argument("--init", default=None, help="starting hyper-parameter JSON")
    p.add_argument("--override", action="append", metavar="NAME=VALUE",
                   help="post-fit hyper-parameter edit (repeatable)")
    p.add_argument("--tol", type=float, default=1e-7, help="relative ELBO tolerance")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--trace", default=None, help="write ELBO trace CSV here")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("empirical", help="closest-of-N false alarm rates from a corpus",
                        description="Exact worst-case rates with 99%% intervals across targets; "
                                    "CSV N,estimate,ci_low,ci_high.")
    _add_common_io(p)
    _add_tau_options(p)
    p.add_argument("--n", required=True, help="comma-separated population sizes, e.g. 1,2,4")
    _add_unused_mc_options(p)
    p.set_defaults(func=cmd_empirical)

    p = subs.add_parser("predict", help="model-based closest-of-N false alarm rates",
                        description="Model predictions for arbitrary N; CSV N,estimate,ci_low,ci_high.")
    p.add_argument("--theta", required=True, help="hyper-parameter JSON")
    _add_tau_options(p)
    p.add_argument("--n", required=True, help="comma-separated population sizes")
    _add_model_options(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("simulate", help="generate a synthetic corpus",
                        description="Spec JSON in, corpus CSV out; toy mode can emit labelled scores.")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--out", default=None)
    p.add_argument("--labeled-out", default=None, help="labelled score CSV (toy_asv only)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("curve", help="empirical and model estimates across N",
                        description="Rows N,tau_label,tau,source,estimate,ci_low,ci_high; "
                                    "empirical rows stop at the corpus impostor capacity.")
    _add_common_io(p)
    p.add_argument("--theta", required=True, help="hyper-parameter JSON")
    p.add_argument("--tau", action="append", required=True, metavar="LABEL=VALUE",
                   help="labelled threshold (repeatable)")
    p.add_argument("--n", required=True, help="ascending comma-separated population sizes")
    _add_model_options(p)
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("diagnose", help="model-assumption mismatch report",
                        description="Skewness and closest-vs-random spread summary as JSON.")
    _add_common_io(p)
    _add_tau_options(p)
    p.add_argument("--n-impostors", type=int, default=1000)
    _add_unused_mc_options(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage problems exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
