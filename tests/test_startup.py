"""Start-up guard: each command imports only the modules it runs.

Each command runs `wcfar.cli.main` in a fresh interpreter, which then
reports which of numpy, numpy.ma, scipy and the `wcfar.*` modules are in
`sys.modules`.  No command imports scipy, which only the tests use as an
oracle; a static check covers the library code that no command runs.  No
command imports numpy.ma either.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcfar
from wcfar.cli import main
from wcfar.model import Hyperparameters

THETA = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)
SRC = str(Path(wcfar.__file__).resolve().parents[1])
CHILD = (
    "import json, sys; from wcfar.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps([m for m in sys.modules if m in ('numpy', 'numpy.ma', 'scipy') or m.startswith('wcfar.')])); "
    "sys.exit(code)"
)

COMMANDS = {
    "version": ["--version"],
    "help": ["predict", "--help"],
    "usage-error": ["predict", "--tau", "1.0"],
    "simulate-model": ["simulate", "--spec", "{model}", "--out", "{out}"],
    "simulate-toy": ["simulate", "--spec", "{toy}", "--out", "{out}", "--labeled-out", "{out}.labels"],
    "threshold": ["threshold", "--labels", "{labels}", "--eer", "--out", "{out}"],
    "empirical": ["empirical", "--corpus", "{corpus}", "--tau", "1.0", "--n", "1,2", "--out", "{out}"],
    "diagnose": [
        "diagnose", "--corpus", "{corpus}", "--tau", "1.0", "--n-impostors", "2", "--out", "{out}",
    ],
    "fit": ["fit", "--corpus", "{corpus}", "--out", "{out}"],
    "predict": ["predict", "--theta", "{theta}", "--tau", "1.0", "--n", "1,100", "--out", "{out}"],
    "predict-sampling": [
        "predict", "--theta", "{theta}", "--tau", "1.0", "--n", "1,100", "--method", "sampling",
        "--out", "{out}",
    ],
    "curve": [
        "curve", "--corpus", "{corpus}", "--theta", "{theta}", "--tau", "lo=1.0", "--n", "1,2,100",
        "--out", "{out}",
    ],
}
EXIT_CODES = {"usage-error": 1}

# the modules only some commands need, and which of them each command loads
SOME = {"wcfar.score_data", "wcfar.inference", "wcfar.metrics", "wcfar.synthetic"}
NEEDS = {
    "simulate-model": {"wcfar.synthetic"},
    "simulate-toy": {"wcfar.synthetic"},
    "threshold": {"wcfar.metrics", "wcfar.score_data"},
    "empirical": {"wcfar.score_data"},
    "diagnose": {"wcfar.score_data"},
    "fit": {"wcfar.inference", "wcfar.score_data"},
    "predict": set(),
    "predict-sampling": set(),
    "curve": {"wcfar.score_data"},
}
LEAN = ["version", "help", "usage-error"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    files = ["model.json", "toy.json", "theta.json", "corpus.csv", "labels.csv", "out"]
    paths = {path.stem: path for path in map(root.joinpath, files)}
    paths["model"].write_text(json.dumps({
        "kind": "model", "theta": THETA.to_json(), "t_targets": 4,
        "n_impostors_per_target": 5, "l_scores_per_pair": 3, "seed": 1,
    }))
    paths["toy"].write_text(json.dumps({
        "kind": "toy_asv", "embedding_dim": 4, "speaker_spread": 1.0,
        "utterance_noise": 1.0, "n_speakers": 4, "n_utts_per_speaker": 3, "seed": 2,
    }))
    paths["theta"].write_text(json.dumps(THETA.to_json()))
    assert main(["simulate", "--spec", str(paths["model"]), "--out", str(paths["corpus"])]) == 0
    assert main(["simulate", "--spec", str(paths["toy"]), "--out", str(root / "toy.csv"),
                 "--labeled-out", str(paths["labels"])]) == 0
    return paths


def loaded(template: list[str], paths, preamble: str = "", code: int = 0) -> set[str]:
    """Run one command in a fresh interpreter, after `preamble`; the probed modules it loaded (see CHILD)."""
    args = [arg.format(**paths) for arg in template]
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", preamble + CHILD, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == code, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def probe(paths):
    """`loaded` of a command of COMMANDS by name, one child per command."""
    return functools.cache(lambda name: loaded(COMMANDS[name], paths, code=EXIT_CODES.get(name, 0)))


@pytest.mark.parametrize("name", COMMANDS)
def test_command_skips_scipy(name, probe):
    assert "scipy" not in probe(name)


def test_probe_sees_scipy_when_loaded(paths):
    """Positive control: the probe reports scipy once something has imported it."""
    assert "scipy" in loaded(COMMANDS["version"], paths, preamble="import scipy.special; ")


@pytest.mark.parametrize("name", COMMANDS)
def test_command_skips_numpy_ma(name, probe):
    """`numpy.ma` costs each child 11-20 ms and ~1.5 MB; numpy 2.4's `np.unique` imports it."""
    assert "numpy.ma" not in probe(name)


def test_probe_sees_numpy_ma_when_loaded(paths):
    """Positive control: the probe reports numpy.ma once something has imported it."""
    assert "numpy.ma" in loaded(COMMANDS["version"], paths, preamble="import numpy.ma; ")


@pytest.mark.parametrize("name", LEAN)
def test_no_library_run_loads_no_numpy(name, probe):
    assert probe(name) == {"wcfar.cli", "wcfar.errors"}


def test_import_wcfar_loads_no_submodule_and_no_numpy():
    code = (
        "import json, sys, wcfar; "
        "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('wcfar.')]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("name", NEEDS)
def test_command_loads_only_what_it_runs(name, probe):
    assert "numpy" in probe(name)
    assert probe(name) & SOME == NEEDS[name]



def scipy_imports(path: Path) -> list[str]:
    """`import scipy...` and `from scipy... import` statements in one module, nested ones included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"]
    return found


def test_no_module_imports_scipy():
    modules = sorted(Path(wcfar.__file__).parent.rglob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in scipy_imports(path)] == []


def test_scipy_import_scan_sees_nested_imports(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import os, scipy.special as sp\ndef f():\n    from scipy import stats\n")
    assert scipy_imports(module) == ["probe.py:1: scipy.special", "probe.py:3: scipy"]
