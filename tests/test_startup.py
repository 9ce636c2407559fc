"""Start-up guard: only commands that evaluate a special function import scipy.

Each command runs `wcfar.cli.main` in a fresh interpreter, which then
reports whether `scipy` is in `sys.modules`.  A top-level scipy import
anywhere in the package makes the first group fail.
"""

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

SCIPY_FREE = {
    "version": ["--version"],
    "simulate-model": ["simulate", "--spec", "{model}", "--out", "{out}"],
    "simulate-toy": ["simulate", "--spec", "{toy}", "--out", "{out}", "--labeled-out", "{out}.labels"],
    "threshold": ["threshold", "--labels", "{labels}", "--eer", "--out", "{out}"],
    "empirical": ["empirical", "--corpus", "{corpus}", "--tau", "1.0", "--n", "1,2", "--out", "{out}"],
    "diagnose": [
        "diagnose", "--corpus", "{corpus}", "--tau", "1.0", "--n-impostors", "2", "--out", "{out}",
    ],
}
SCIPY_USERS = {
    "fit": ["fit", "--corpus", "{corpus}", "--out", "{out}"],
    "predict": ["predict", "--theta", "{theta}", "--tau", "1.0", "--n", "1,100", "--out", "{out}"],
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


def loads_scipy(template: list[str], paths) -> bool:
    """Run one command in a fresh interpreter; True if it imported scipy."""
    args = [arg.format(**paths) for arg in template]
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("name", SCIPY_FREE)
def test_command_skips_scipy(name, paths):
    assert not loads_scipy(SCIPY_FREE[name], paths)


@pytest.mark.parametrize("name", SCIPY_USERS)
def test_special_function_command_loads_scipy(name, paths):
    assert loads_scipy(SCIPY_USERS[name], paths)
