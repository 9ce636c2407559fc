import codecs
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import wcfar
from wcfar.cli import main
from wcfar.errors import NumericError
from wcfar.model import DEFAULT_SCORES_PER_PAIR, Hyperparameters
from wcfar.score_data import load_corpus
from wcfar.synthetic import SyntheticSpec, generate_model_corpus

THETA = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)


@pytest.fixture
def corpus_csv(tmp_path):
    spec = SyntheticSpec(
        theta=THETA, t_targets=12, n_impostors_per_target=8, l_scores_per_pair=6, seed=61
    )
    corpus = generate_model_corpus(spec)
    path = tmp_path / "corpus.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_id", "impostor_id", "score"])
        for p, impostor_id in enumerate(corpus.impostor_ids):
            target_id = corpus.target_ids[corpus.pair_target[p]]
            for s in corpus.scores[corpus.pair_offsets[p] : corpus.pair_offsets[p + 1]]:
                writer.writerow([target_id, impostor_id, repr(float(s))])
    return path


@pytest.fixture
def labels_csv(tmp_path):
    rng = np.random.default_rng(62)
    path = tmp_path / "labels.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "score"])
        for s in rng.normal(1.0, 1.0, 400):
            writer.writerow(["target", repr(float(s))])
        for s in rng.normal(-1.0, 1.0, 400):
            writer.writerow(["nontarget", repr(float(s))])
    return path


@pytest.fixture
def theta_json(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(THETA.to_json()))
    return path


def run(args):
    return main([str(a) for a in args])


def error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if "error:" in line]


class TestThresholdCommand:
    def test_eer_output(self, labels_csv, tmp_path, capsys):
        out = tmp_path / "thr.json"
        assert run(["threshold", "--labels", labels_csv, "--eer", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"] == "eer"
        assert abs(payload["tau"]) < 0.3

    def test_dcf_output(self, labels_csv, capsys):
        assert run(["threshold", "--labels", labels_csv, "--dcf", "0.5,1,10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"] == "min_dcf"
        assert payload["dcf_params"]["c_fa"] == 10.0

    def test_missing_file(self, capsys):
        assert run(["threshold", "--labels", "/nonexistent.csv", "--eer"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_dcf_string(self, labels_csv, capsys):
        assert run(["threshold", "--labels", labels_csv, "--dcf", "0.5,1"]) == 1


class TestFitCommand:
    def test_writes_theta_and_trace(self, corpus_csv, tmp_path):
        out, trace = tmp_path / "fit.json", tmp_path / "trace.csv"
        assert run(["fit", "--corpus", corpus_csv, "--out", out, "--trace", trace]) == 0
        payload = json.loads(out.read_text())
        fitted = Hyperparameters.from_json({k: payload[k] for k in THETA.to_json()})
        assert abs(fitted.mu0) < 1.0
        with open(trace) as fh:
            rows = list(csv.DictReader(fh))
        elbo = [float(r["elbo"]) for r in rows]
        assert all(b >= a - 1e-8 for a, b in zip(elbo, elbo[1:]))

    def test_override_post_edits(self, corpus_csv, tmp_path, capsys):
        assert run(["fit", "--corpus", corpus_csv, "--override", "alpha_lambda=2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha_lambda"] == 2.0

    def test_bad_override(self, corpus_csv, capsys):
        assert run(["fit", "--corpus", corpus_csv, "--override", "alpha_lambda"]) == 1

    def test_init_file(self, corpus_csv, theta_json, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(["fit", "--corpus", corpus_csv, "--init", theta_json, "--out", out_a]) == 0
        assert run(["fit", "--corpus", corpus_csv, "--init", theta_json, "--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_init_not_json(self, corpus_csv, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text("nope")
        assert run(["fit", "--corpus", corpus_csv, "--init", init]) == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and str(init) in errors[0]

    def test_malformed_corpus(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("target_id,impostor_id,score\nx,x,1.0\n")
        assert run(["fit", "--corpus", bad]) == 1

    def test_numeric_error_exit_code(self, corpus_csv, capsys):
        with mock.patch("wcfar.inference.fit", side_effect=NumericError("boom")):
            assert run(["fit", "--corpus", corpus_csv]) == 2
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, reason",
        [
            ("t,a,0.1\nt,a,0.4\nt,b,0.2\nt,b,0.7\n", "one target"),
            ("t1,a,0.1\nt1,b,0.4\nt2,a,0.2\nt2,b,0.7\n", "single score"),
        ],
        ids=["one-target", "single-scores"],
    )
    def test_non_identifiable_corpus(self, tmp_path, capsys, rows, reason):
        path = tmp_path / "corpus.csv"
        path.write_text("target_id,impostor_id,score\n" + rows)
        assert run(["fit", "--corpus", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: cannot fit") and reason in line


class TestEmpiricalCommand:
    def test_csv_output(self, corpus_csv, capsys):
        assert (
            run(
                ["empirical", "--corpus", corpus_csv, "--tau", "1.0",
                 "--n", "1,2,4", "--t-outer", "400", "--seed", "3"]
            )
            == 0
        )
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["N"] for r in rows] == ["1", "2", "4"]
        values = [float(r["estimate"]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_threshold_file_input(self, corpus_csv, tmp_path, capsys):
        thr = tmp_path / "thr.json"
        thr.write_text(json.dumps({"tau": 1.0}))
        assert (
            run(
                ["empirical", "--corpus", corpus_csv, "--threshold", thr,
                 "--n", "1", "--t-outer", "100", "--seed", "3"]
            )
            == 0
        )

    @pytest.mark.parametrize("payload", ["5", '{"tau": null}', '{"tau": "abc"}', '[1.0]', "{}", "nope"])
    def test_bad_threshold_file(self, corpus_csv, tmp_path, capsys, payload):
        thr = tmp_path / "thr.json"
        thr.write_text(payload)
        code = run(["empirical", "--corpus", corpus_csv, "--threshold", thr, "--n", "1"])
        assert code == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and str(thr) in errors[0]

    def test_corpus_without_suffix(self, corpus_csv, tmp_path, capsys):
        bare = tmp_path / "corpus"
        bare.write_bytes(corpus_csv.read_bytes())
        assert run(["empirical", "--corpus", bare, "--tau", "1.0", "--n", "1"]) == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and "--format" in errors[0] and "format=" not in errors[0]
        args = ["empirical", "--corpus", bare, "--format", "csv", "--tau", "1.0", "--n", "1"]
        assert run(args) == 0

    def test_population_exceeding_corpus(self, corpus_csv, capsys):
        code = run(
            ["empirical", "--corpus", corpus_csv, "--tau", "1.0",
             "--n", "64", "--t-outer", "100", "--seed", "3"]
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err


class TestPredictCommand:
    def test_closed_form(self, theta_json, capsys):
        assert (
            run(
                ["predict", "--theta", theta_json, "--tau", "1.0",
                 "--n", "1,10,100,100000", "--t-outer", "300", "--seed", "4"]
            )
            == 0
        )
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        values = [float(r["estimate"]) for r in rows]
        assert values == sorted(values)  # shared draws make this exact

    def test_sampling_method(self, theta_json, capsys):
        assert (
            run(
                ["predict", "--theta", theta_json, "--tau", "1.0", "--n", "2",
                 "--t-outer", "200", "--seed", "4", "--method", "sampling",
                 "--scores-per-pair", "16"]
            )
            == 0
        )

    def test_sampling_default_is_the_model_default(self, theta_json, capsys):
        common = ["predict", "--theta", theta_json, "--tau", "1.0", "--n", "1,64", "--t-outer", "50",
                  "--method", "sampling"]
        outputs = []
        for extra in ([], ["--scores-per-pair", DEFAULT_SCORES_PER_PAIR], ["--scores-per-pair", "10"]):
            assert run(common + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert DEFAULT_SCORES_PER_PAIR == 324 and outputs[0] == outputs[1] != outputs[2]

    @pytest.mark.parametrize("method", ["closed", "sampling"])
    def test_rows_do_not_depend_on_other_populations(self, theta_json, capsys, method):
        common = ["predict", "--theta", theta_json, "--tau", "1.0", "--t-outer", "200",
                  "--seed", "4", "--method", method, "--scores-per-pair", "16"]
        lines = {}
        for n in ("1,1000", "1", "1000"):
            assert run(common + ["--n", n]) == 0
            lines[n] = capsys.readouterr().out.splitlines()
        assert lines["1,1000"] == lines["1"] + lines["1000"][1:]

    @pytest.mark.filterwarnings("error")
    def test_single_score_sets(self, corpus_csv, theta_json, capsys):
        # one score per set leaves no residual: each outer iteration counts its
        # winner's mean above tau as 0 or 1, with nothing on stderr
        t_outer = 200
        common = ["--t-outer", t_outer, "--seed", "4", "--method", "sampling", "--scores-per-pair", "1"]
        for args in (
            ["predict", "--theta", theta_json, "--tau", "1.0", "--n", "1,10,1000"],
            ["curve", "--corpus", corpus_csv, "--theta", theta_json, "--tau", "op=1.0", "--n", "1,4,64"],
        ):
            assert run(args + common) == 0
            out, err = capsys.readouterr()
            assert err == ""
            rows = [r for r in csv.DictReader(out.splitlines()) if r.get("source", "model") == "model"]
            values = [float(r["estimate"]) for r in rows]
            assert len(values) == 3
            assert all(v == round(v * t_outer) / t_outer for v in values)

    def test_theta_not_json(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text("nope")
        assert run(["predict", "--theta", theta, "--tau", "1.0", "--n", "1"]) == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and str(theta) in errors[0]

    def test_null_hyperparameter(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({**THETA.to_json(), "mu0": None}))
        assert run(["predict", "--theta", theta, "--tau", "1.0", "--n", "1"]) == 1
        assert len(error_lines(capsys)) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["closed", "sampling"])
    @pytest.mark.parametrize("field", ["alpha_lambda", "a_sigma"])
    def test_gamma_draw_underflow(self, tmp_path, capsys, field, method):
        # Gamma(0.002) draws underflow to 0 about once in five: lam = 0 and
        # sigma_sq = 1 / 0 are refused before they reach a tail or a warning
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({**THETA.to_json(), field: 0.002}))
        args = ["predict", "--theta", theta, "--tau", "1.5", "--n", "1,64", "--t-outer", "200",
                "--method", method]
        assert run(args) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: lam and sigma_sq must be positive")


class TestSimulateCommand:
    def test_model_corpus_round_trips(self, tmp_path):
        spec = {
            "kind": "model",
            "theta": THETA.to_json(),
            "t_targets": 3,
            "n_impostors_per_target": 2,
            "l_scores_per_pair": 4,
            "seed": 5,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--spec", spec_path, "--out", out]) == 0
        direct = generate_model_corpus(
            SyntheticSpec(
                theta=THETA, t_targets=3, n_impostors_per_target=2, l_scores_per_pair=4, seed=5,
            )
        )
        assert load_corpus(out) == direct  # lossless round trip

    def test_toy_asv_with_labels(self, tmp_path):
        spec = {
            "kind": "toy_asv",
            "embedding_dim": 8,
            "speaker_spread": 1.0,
            "utterance_noise": 0.5,
            "n_speakers": 4,
            "n_utts_per_speaker": 3,
            "seed": 6,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out, labeled = tmp_path / "sim.csv", tmp_path / "labeled.csv"
        assert run(["simulate", "--spec", spec_path, "--out", out, "--labeled-out", labeled]) == 0
        with open(labeled) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["label"] for r in rows} == {"target", "nontarget"}

    def test_labeled_out_rejected_for_model_kind(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "kind": "model", "theta": THETA.to_json(), "t_targets": 1,
                    "n_impostors_per_target": 1, "l_scores_per_pair": 1, "seed": 1,
                }
            )
        )
        assert run(["simulate", "--spec", spec_path, "--labeled-out", tmp_path / "x.csv"]) == 1

    def test_spec_not_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("nope")
        assert run(["simulate", "--spec", spec_path]) == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and str(spec_path) in errors[0]

    @pytest.mark.parametrize("field", ["alpha_lambda", "a_sigma"])
    def test_gamma_draw_underflow(self, tmp_path, capsys, field):
        # Gamma(0.002) draws underflow to 0 about once in five: lam = 0 and
        # sigma_sq = 1 / 0 are refused
        theta = {**THETA.to_json(), field: 0.002}
        spec = {"kind": "model", "theta": theta, "t_targets": 200,
                "n_impostors_per_target": 2, "l_scores_per_pair": 2, "seed": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["simulate", "--spec", spec_path]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: lam and sigma_sq must be positive")

    def test_unknown_kind(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "voice"}))
        assert run(["simulate", "--spec", spec_path]) == 1

    @pytest.mark.parametrize(
        "edit", [{"theta": None}, {"colour": "blue"}], ids=["missing_theta", "unknown_key"]
    )
    def test_bad_spec_keys(self, tmp_path, capsys, edit):
        spec = {
            "kind": "model", "theta": THETA.to_json(), "t_targets": 1,
            "n_impostors_per_target": 1, "l_scores_per_pair": 1, "seed": 1,
        }
        spec = {k: v for k, v in {**spec, **edit}.items() if v is not None}  # None drops a key
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["simulate", "--spec", spec_path]) == 1
        assert len(error_lines(capsys)) == 1


    # sha256 of the parent commit's output for the acceptance-9 specs; guards
    # the generators and the chunked writer against any change of bytes
    PINNED = {
        "model": {"sim.csv": "09e1158247871905a2849c27b058423d4e40b39972b408d3f5b8ca08a0e5f502"},
        "toy_asv": {
            "sim.csv": "abd1c3e9d8a072d0bd464600d9c6de9d37c9f258b479cbc25af9813d265d71d4",
            "labeled.csv": "ea73fe594791ac4ac6545f6f83faee10ec20ec81f645717f8cdadb2582b1b551",
        },
    }
    SPECS = {
        "model": {
            "kind": "model", "theta": THETA.to_json(), "t_targets": 10,
            "n_impostors_per_target": 8, "l_scores_per_pair": 6, "seed": 5,
        },
        "toy_asv": {
            "kind": "toy_asv", "embedding_dim": 8, "speaker_spread": 1.0,
            "utterance_noise": 1.0, "n_speakers": 6, "n_utts_per_speaker": 4, "seed": 6,
        },
    }

    @pytest.mark.parametrize("kind", ["model", "toy_asv"])
    def test_output_bytes_pinned(self, tmp_path, kind):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPECS[kind]))
        args = ["simulate", "--spec", spec_path, "--out", tmp_path / "sim.csv"]
        if kind == "toy_asv":
            args += ["--labeled-out", tmp_path / "labeled.csv"]
        assert run(args) == 0
        for name, digest in self.PINNED[kind].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize(
        "kind, edit",
        [("model", {"seed": "x"}), ("model", {"t_targets": 2.5}), ("toy_asv", {"embedding_dim": "8"})],
        ids=["string_seed", "float_count", "string_dim"],
    )
    def test_wrong_typed_spec_values(self, tmp_path, capsys, kind, edit):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**self.SPECS[kind], **edit}))
        assert run(["simulate", "--spec", spec_path]) == 1
        assert len(error_lines(capsys)) == 1


class TestExactCorpusCommands:
    """`empirical`, `diagnose` and `curve`'s empirical rows draw no random numbers."""

    def test_outputs_ignore_seed_and_t_outer(self, corpus_csv, theta_json, tmp_path):
        commands = {
            "empirical": ["empirical", "--corpus", corpus_csv, "--tau", "1.0", "--n", "1,3,8"],
            "diagnose": ["diagnose", "--corpus", corpus_csv, "--tau", "1.0", "--n-impostors", "3"],
            "curve": ["curve", "--corpus", corpus_csv, "--theta", theta_json, "--tau", "op=1.0",
                      "--n", "1,4,64"],
        }
        for name, args in commands.items():
            outputs = set()
            for seed, t_outer in (("1", "10"), ("2", "10"), ("1", "1000"), ("2", "1000")):
                out = tmp_path / f"{name}.out"
                assert run(args + ["--seed", seed, "--t-outer", t_outer, "--out", out]) == 0
                data = out.read_bytes()
                if name == "curve":
                    lines = data.splitlines(keepends=True)
                    data = b"".join(line for line in lines if b",empirical," in line)
                    assert data.count(b"\n") == 2  # N = 1 and 4
                if name == "diagnose":  # all but the echo of --t-outer
                    data = data.replace(b'"t_outer": %s' % t_outer.encode(), b'"t_outer": T')
                outputs.add(data)
            assert len(outputs) == 1, name


class TestCurveCommand:
    def test_empirical_rows_respect_capacity(self, corpus_csv, theta_json, capsys):
        assert (
            run(
                ["curve", "--corpus", corpus_csv, "--theta", theta_json,
                 "--tau", "op=1.0", "--n", "1,4,64", "--t-outer", "200", "--seed", "7"]
            )
            == 0
        )
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        by_n = {}
        for r in rows:
            by_n.setdefault(r["N"], set()).add(r["source"])
        # corpus has 8 impostors per target: N=64 is model-only extrapolation
        assert by_n["1"] == {"empirical", "model"}
        assert by_n["4"] == {"empirical", "model"}
        assert by_n["64"] == {"model"}

    def test_requires_ascending_populations(self, corpus_csv, theta_json, capsys):
        assert (
            run(
                ["curve", "--corpus", corpus_csv, "--theta", theta_json,
                 "--tau", "op=1.0", "--n", "4,1", "--t-outer", "50", "--seed", "7"]
            )
            == 1
        )

    def test_bad_tau_spec(self, corpus_csv, theta_json):
        assert (
            run(
                ["curve", "--corpus", corpus_csv, "--theta", theta_json,
                 "--tau", "1.0", "--n", "1", "--t-outer", "50", "--seed", "7"]
            )
            == 1
        )


class TestDiagnoseCommand:
    def test_json_report(self, corpus_csv, capsys):
        assert (
            run(
                ["diagnose", "--corpus", corpus_csv, "--tau", "1.0",
                 "--n-impostors", "4", "--t-outer", "300", "--seed", "8"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_impostors"] == 4
        assert payload["closest_impostor_stdev"] > 0


class TestScoreFiles:
    @pytest.mark.parametrize("command,pad", [
        pytest.param(command, pad, id=command + suffix)
        for command in ("empirical", "threshold")
        for pad, suffix in ((" ", ""), ("", "-unpadded"))
    ])
    def test_field_beyond_csv_limit_is_one_error_line(self, tmp_path, capsys, command, pad):
        path = tmp_path / "scores.csv"
        if command == "empirical":
            path.write_text("target_id,impostor_id,score\n" + "a" * 140_000 + pad + ",b,1.0\n")
            args = ["empirical", "--corpus", path, "--tau", "1.0", "--n", "1"]
        else:
            path.write_text("label,score\n" + "t" * 140_000 + pad + ",1.0\n")
            args = ["threshold", "--labels", path, "--eer"]
        assert run(args) == 1
        assert capsys.readouterr().err.splitlines() == ["error: line 2: field larger than field limit (131072)"]

    def test_utf8_files_load_under_an_ascii_locale(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        rows = ["Zoé,Camille,0.5", "Zoé,Léa,1.5", "Camille,Zoé,1.0", "Camille,Léa,0.2"]
        path.write_text("target_id,impostor_id,score\n" + "\n".join(rows) + "\n", encoding="utf-8")
        args = ["empirical", "--corpus", str(path), "--tau", "0.4", "--n", "1,2"]
        assert run(args) == 0
        want = capsys.readouterr().out
        # without locale coercion and UTF-8 mode the C locale decodes as ASCII by default
        child = (
            "import locale, sys; from wcfar.cli import main; code = main(sys.argv[1:]); "
            "print(locale.getpreferredencoding(False), file=sys.stderr); sys.exit(code)"
        )
        src = str(Path(wcfar.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", child, *args], capture_output=True, text=True, env=env
        )
        assert codecs.lookup(proc.stderr.strip()).name == "ascii"
        assert (proc.returncode, proc.stdout) == (0, want)


class TestCliContract:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "threshold" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["curve", "--help"]) == 0

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["empirical", "--frobnicate"]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_seed_env_default(self, corpus_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WCFAR_SEED", "99")
        out_env = tmp_path / "env.csv"
        assert run(["empirical", "--corpus", corpus_csv, "--tau", "1.0",
                    "--n", "1", "--t-outer", "100", "--out", out_env]) == 0
        monkeypatch.delenv("WCFAR_SEED")
        out_flag = tmp_path / "flag.csv"
        assert run(["empirical", "--corpus", corpus_csv, "--tau", "1.0",
                    "--n", "1", "--t-outer", "100", "--seed", "99", "--out", out_flag]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_non_integer_seed_env(self, theta_json, monkeypatch, capsys):
        monkeypatch.setenv("WCFAR_SEED", "abc")
        assert run(["predict", "--theta", theta_json, "--tau", "1.0", "--n", "1"]) == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and "WCFAR_SEED" in errors[0]
