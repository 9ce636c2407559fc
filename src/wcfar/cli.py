"""Command line client tying the pipeline together.

Subcommands: threshold, fit, empirical, predict, simulate, curve, diagnose.
Data goes to stdout or --out; messages go to stderr.  Exit codes: 0 on
success, 1 on user errors (bad arguments, unreadable or malformed files,
inconsistent configuration, a failed write to stdout), 2 on numerical
failures.  All commands are deterministic for a fixed --seed (default from
$WCFAR_SEED, else 0).

The `wcfar` command and ``python -m wcfar.cli`` run `run`, which ends the
process by `os._exit` once stdout and stderr are flushed: the interpreter's
teardown is skipped, so no `atexit` handler runs after a command.  Code
that calls `main` itself is not affected.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .errors import NumericError

if TYPE_CHECKING:  # each command imports the library modules it runs, so --version and --help load no numpy
    from .estimators import EstimateWithCI
    from .metrics import DcfParams
    from .model import Hyperparameters

SEED_ENV_VAR = "WCFAR_SEED"

_CHUNK_LINES = 1 << 12  # lines per string written by `_score_lines`, at least


def _fmt(x: float) -> str:
    """Serialise a float with enough digits to round-trip exactly."""
    return format(float(x), ".17g")


def _seed(text: str) -> int:
    """argparse type of --seed; its string default $WCFAR_SEED is converted only when used."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--seed or ${SEED_ENV_VAR} is not an integer: {text!r}")


@contextlib.contextmanager
def _output(out_path: str | None):
    """The text file to write `out_path` through, or stdout for None.

    A regular or new file is written as a temporary file beside it, which
    replaces it only when the block ends without an exception, so a failed
    run leaves no output; a device or a pipe is written in place.
    """
    if out_path is None:
        if sys.stdout is None:  # the process started with its stdout closed
            raise ValueError("stdout is closed; name an output file with --out")
        yield sys.stdout
        return
    try:
        mode = os.stat(out_path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out_path, "w") as fh:
            yield fh
        return
    path = os.path.realpath(out_path)
    temp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the mode `open` gives a new file
    except OSError as exc:  # named by the path given, not by the temporary file's
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        with open(fd, "w") as fh:
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))  # a replaced file keeps its mode
            yield fh
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def _same_file(a: str, b: str) -> bool:
    """Whether paths `a` and `b` name one file, through symbolic or hard links too."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return False


def _write_text(text: str, out_path: str | None):
    with _output(out_path) as fh:
        fh.write(text)


def _score_lines(header: str, blocks):
    """`header`, then one ``<prefix><score>`` line per score of each block ``(prefixes, scores)``.

    `scores` is shaped (len(prefixes), L): row r's scores follow prefix r,
    which holds leading cells, comma included, and no ``%``.  Scores are
    formatted as `_fmt` formats them.  Whole blocks are joined into strings
    of at least `_CHUNK_LINES` lines, the last excepted.
    """
    yield header
    formats, values = [], []
    for prefixes, scores in blocks:
        formats += [(prefix + "%.17g\n") * scores.shape[1] for prefix in prefixes]
        values += scores.ravel().tolist()
        if len(values) >= _CHUNK_LINES:
            yield "".join(formats) % tuple(values)
            formats, values = [], []
    if values:
        yield "".join(formats) % tuple(values)


def _json_dump(obj: dict) -> str:
    """`obj` as JSON, or ValueError naming the first key, in key order, whose value is NaN or infinite."""
    for key in sorted(obj):
        if isinstance(obj[key], float) and not math.isfinite(obj[key]):
            raise ValueError(f"{key} is {obj[key]}: JSON holds no NaN or Infinity")
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError("empty population-size list")
    return values


def _parse_dcf(text: str) -> DcfParams:
    from .metrics import DcfParams

    parts = text.split(",")
    try:
        if len(parts) != 3:
            raise ValueError(f"expected p_target,c_miss,c_fa, got {text!r}")
        return DcfParams(p_target=float(parts[0]), c_miss=float(parts[1]), c_fa=float(parts[2]))
    except ValueError as exc:  # argparse shows the reason of an ArgumentTypeError only
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path} is not a JSON file: {exc}") from None


def _load_theta(path: str) -> Hyperparameters:
    from .model import Hyperparameters

    return Hyperparameters.from_json(_read_json(path))


def _spec(cls, obj: dict):
    """Build a spec dataclass; a TypeError from a bad key or value is a user error."""
    try:
        return cls(**obj)
    except TypeError as exc:
        raise ValueError(f"bad simulation spec: {exc}") from None


def _load_corpus(args):
    """`load_corpus` on --corpus, with a format that cannot be inferred reported in terms of --format."""
    from .score_data import FORMAT_BY_SUFFIX, load_corpus

    fmt = args.format or FORMAT_BY_SUFFIX.get(Path(args.corpus).suffix.lower())
    if fmt is None:
        raise ValueError(
            f"cannot infer the format of {args.corpus} from its suffix; pass --format csv or --format jsonl"
        )
    return load_corpus(args.corpus, format=fmt)


def _resolve_tau(args) -> float:
    """--tau, or the 'tau' of the --threshold file; argparse requires exactly one of them."""
    try:
        tau = args.tau if args.tau is not None else float(_read_json(args.threshold)["tau"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"threshold file {args.threshold} must hold a JSON object with a numeric 'tau'") from None
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    return tau


def _csv_text(header: list[str], rows) -> str:
    """A CSV table of `header` and `rows`, one line each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _estimate_csv(rows: list[tuple[int, EstimateWithCI]]) -> str:
    table = ([n, _fmt(est.value), _fmt(est.ci_low), _fmt(est.ci_high)] for n, est in rows)
    return _csv_text(["N", "estimate", "ci_low", "ci_high"], table)


# ---------------------------------------------------------------- commands


def cmd_threshold(args) -> int:
    from dataclasses import asdict

    from .metrics import eer_threshold, min_dcf_threshold
    from .score_data import load_labeled_scores

    labeled = load_labeled_scores(args.labels)
    if args.eer:
        tau, metric, degenerate = eer_threshold(labeled)
        payload = {"provenance": "eer"}
    else:
        tau, metric, degenerate = min_dcf_threshold(labeled, args.dcf)
        payload = {"provenance": "min_dcf", "dcf_params": asdict(args.dcf)}
    payload.update(tau=tau, metric_value=metric, degenerate=degenerate)
    _write_text(_json_dump(payload), args.out)
    return 0


def cmd_fit(args) -> int:
    from .inference import SHAPE_CAP, fit

    if args.out and args.trace and _same_file(args.out, args.trace):
        raise ValueError(f"--out and --trace name the same file: {args.out!r}, {args.trace!r}")
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
        table = ([i, _fmt(value)] for i, value in enumerate(report.elbo_trace, start=1))
        _write_text(_csv_text(["iteration", "elbo"], table), args.trace)
    if not report.converged:
        capped = [name for name in ("alpha_lambda", "a_sigma") if getattr(report.hyperparameters, name) >= SHAPE_CAP]
        why = "".join(f"; {name} sits at its cap {SHAPE_CAP:g}: the corpus does not identify it" for name in capped)
        print(f"warning: EM stopped at max_iter={args.max_iter} before converging{why}", file=sys.stderr)
    return 0


def cmd_empirical(args) -> int:
    from .estimators import estimate_pfa_worst_case

    corpus = _load_corpus(args)
    tau = _resolve_tau(args)
    rows = [(n, estimate_pfa_worst_case(corpus, tau, n)) for n in _parse_int_list(args.n)]
    _write_text(_estimate_csv(rows), args.out)
    return 0


def _predict(args, theta: Hyperparameters, tau: float, n_list: list[int]) -> list[EstimateWithCI]:
    """The model rows at each N of `n_list`: the closed form (L = inf) or the sampling method."""
    from .model import DEFAULT_SCORES_PER_PAIR, predict_pfa

    if args.scores_per_pair is not None and args.method != "sampling":
        raise ValueError("--scores-per-pair applies only to --method sampling")
    per_pair = math.inf
    if args.method == "sampling":
        per_pair = DEFAULT_SCORES_PER_PAIR if args.scores_per_pair is None else args.scores_per_pair
    return predict_pfa(theta, tau, n_list, seed=args.seed, t_outer=args.t_outer, scores_per_pair=per_pair)


def cmd_predict(args) -> int:
    theta = _load_theta(args.theta)
    tau = _resolve_tau(args)
    n_list = _parse_int_list(args.n)
    _write_text(_estimate_csv(list(zip(n_list, _predict(args, theta, tau, n_list)))), args.out)
    return 0


def cmd_simulate(args) -> int:
    from .model import Hyperparameters
    from .synthetic import SyntheticSpec, ToyAsvSpec, model_blocks, toy_asv_blocks

    spec_obj = _read_json(args.spec)
    if not isinstance(spec_obj, dict):
        raise ValueError(f"spec {args.spec} must hold a JSON object")
    kind = spec_obj.pop("kind", "model")
    if kind == "model":
        if args.labeled_out:
            raise ValueError("--labeled-out is only available for kind 'toy_asv'")
        if "theta" in spec_obj:
            spec_obj["theta"] = Hyperparameters.from_json(spec_obj["theta"])
        blocks, labels = model_blocks(_spec(SyntheticSpec, spec_obj)), None
    elif kind == "toy_asv":
        blocks, labels = toy_asv_blocks(_spec(ToyAsvSpec, spec_obj))
    else:
        raise ValueError(f"unknown simulation kind {kind!r}; expected 'model' or 'toy_asv'")

    if args.out and args.labeled_out and _same_file(args.out, args.labeled_out):
        raise ValueError(f"--out and --labeled-out name the same file: {args.out!r}, {args.labeled_out!r}")
    # generated ids hold only letters, digits and underscores: no cell needs CSV quoting or a % escape
    rows = (([f"{target_id},{i}," for i in impostor_ids], scores) for target_id, impostor_ids, scores in blocks)
    with contextlib.ExitStack() as outputs:
        out = outputs.enter_context(_output(args.out))
        labeled_out = outputs.enter_context(_output(args.labeled_out)) if args.labeled_out else None
        out.writelines(_score_lines("target_id,impostor_id,score\n", rows))
        if labeled_out is not None:
            label_rows = (([f"{label},"], scores[None]) for label, scores in labels)
            labeled_out.writelines(_score_lines("label,score\n", label_rows))
    return 0


def cmd_curve(args) -> int:
    from .estimators import estimate_pfa_worst_case

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

    table = []
    for label, tau in taus:
        # n_list is ascending, so the empirical rows are those of its first N
        empirical = [estimate_pfa_worst_case(packed, tau, n) for n in n_list if n <= capacity]
        model = _predict(args, theta, tau, n_list)
        for i, n in enumerate(n_list):
            rows = [("empirical", empirical[i])] if i < len(empirical) else []
            for source, est in rows + [("model", model[i])]:
                table.append([n, label, _fmt(tau), source, _fmt(est.value), _fmt(est.ci_low), _fmt(est.ci_high)])
    _write_text(_csv_text(["N", "tau_label", "tau", "source", "estimate", "ci_low", "ci_high"], table), args.out)
    return 0


def cmd_diagnose(args) -> int:
    from .estimators import diagnose

    corpus = _load_corpus(args)
    tau = _resolve_tau(args)  # before `diagnose`, so a bad --threshold file is reported before a bad N
    echo = {"tau": tau, "n_impostors": args.n_impostors, "t_outer": args.t_outer}
    _write_text(_json_dump({**diagnose(corpus, args.n_impostors).to_json(), **echo}), args.out)
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
    sub.add_argument("--scores-per-pair", type=int, default=None,
                     help="scores per candidate set for the sampling method")
    sub.add_argument("--method", choices=["closed", "sampling"], default="closed")


def _unused_t_outer(text: str) -> int:
    """argparse type of the unused --t-outer, refused below 1 as the predictor's is."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"t_outer must be >= 1, got {value}")
    return value


def _add_unused_mc_options(sub):
    """--t-outer and --seed of the exact corpus commands: checked, not used."""
    unused = "unused: the corpus rates are exact; accepted so existing command lines still run"
    sub.add_argument("--t-outer", type=_unused_t_outer, default=1000, help=unused)
    sub.add_argument("--seed", type=_seed, default=os.environ.get(SEED_ENV_VAR, "0"), help=unused)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wcfar", description=__doc__)
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
    except SystemExit as exc:  # --help and --version exit 0; argparse's usage-error code 2 becomes 1
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Run `main` on the command line, flush stdout and stderr, and end the process with its code.

    `os._exit` skips the interpreter's final garbage collection and module
    teardown, which cost tens of milliseconds per command once numpy is
    loaded.  A failed flush of stdout turns success into exit code 1 and one
    error line; a command that already failed keeps its own code and message.
    """
    code = main()
    if sys.stdout is not None:  # None when the process started with its stdout closed
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code == 0:
                print(f"error: {exc}", file=sys.stderr)
                code = 1
    if sys.stderr is not None:
        with contextlib.suppress(OSError):  # no stream is left to report this failure on
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
