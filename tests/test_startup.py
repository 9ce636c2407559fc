"""Start-up guard: no command imports scipy, which only the tests use as an oracle.

Each command runs `wcfar.cli.main` in a fresh interpreter, which then
reports whether `scipy` is in `sys.modules`.  A static check covers the
library code that no command runs.
"""

import ast
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
    "import sys; from wcfar.cli import main; code = main(sys.argv[1:]); "
    "print('scipy' in sys.modules); sys.exit(code)"
)

COMMANDS = {
    "version": ["--version"],
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


def loads_scipy(template: list[str], paths, preamble: str = "") -> bool:
    """Run one command in a fresh interpreter, after `preamble`; True if scipy is loaded."""
    args = [arg.format(**paths) for arg in template]
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", preamble + CHILD, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("name", COMMANDS)
def test_command_skips_scipy(name, paths):
    assert not loads_scipy(COMMANDS[name], paths)


def test_probe_sees_scipy_when_loaded(paths):
    """Positive control: the probe reports scipy once something has imported it."""
    assert loads_scipy(COMMANDS["version"], paths, preamble="import scipy.special; ")


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
