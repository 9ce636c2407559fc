"""Seeded input generators owned by the benchmark.

The corpora and the labelled score file are drawn here with plain numpy,
never through `wcfar.synthetic` or `wcfar simulate`, so a change to the
program cannot change any workload's inputs.  Every score is written with
`repr`, which round-trips exactly, so the oracles see the same float64
values that the program parses.

A corpus is held as a dense array `scores[target, pair, score]` plus the
identifiers of its targets and of each target's impostors.  Identifiers
are zero-padded so that their lexicographic order (the order in which the
loader sorts them) equals the array order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

# the hierarchical-model parameters every model-based workload uses
THETA = {
    "mu0": 0.0,
    "sigma0_sq": 1.0,
    "a_sigma": 4.0,
    "b_sigma": 3.0,
    "alpha_lambda": 4.0,
    "beta_lambda": 4.0,
}


@dataclass(frozen=True)
class Corpus:
    scores: np.ndarray  # (targets, pairs per target, scores per pair)
    target_ids: list[str]
    impostor_ids: list[list[str]]  # per target, in pair order


@dataclass(frozen=True)
class Latents:
    """Per-target draws behind a model corpus, for the recovery check."""

    m: np.ndarray
    lam: np.ndarray
    sigma_sq: np.ndarray


def model_corpus(seed: int, n_targets: int, n_impostors: int, n_scores: int) -> tuple[Corpus, Latents]:
    """Draw a corpus from the hierarchical model with parameters THETA."""
    g = np.random.default_rng([seed, 1])
    th = THETA
    m = g.normal(th["mu0"], np.sqrt(th["sigma0_sq"]), n_targets)
    lam = g.gamma(th["alpha_lambda"], 1.0 / th["beta_lambda"], n_targets)
    sigma_sq = 1.0 / g.gamma(th["a_sigma"], 1.0 / th["b_sigma"], n_targets)
    mu = g.normal(m[:, None], np.sqrt(sigma_sq / lam)[:, None], (n_targets, n_impostors))
    scores = g.normal(mu[..., None], np.sqrt(sigma_sq)[:, None, None], (n_targets, n_impostors, n_scores))
    target_ids = [f"t{i:05d}" for i in range(n_targets)]
    impostor_ids = [[f"i{i:05d}_{j:04d}" for j in range(n_impostors)] for i in range(n_targets)]
    return Corpus(scores, target_ids, impostor_ids), Latents(m, lam, sigma_sq)


def toy_asv_corpus(
    seed: int, n_speakers: int, n_utts: int, dim: int = 64, spread: float = 1.0, noise: float = 1.5
) -> tuple[Corpus, np.ndarray, np.ndarray]:
    """Embedding-space verification scores: corpus, target scores, non-target scores.

    Utterance embeddings are a speaker identity plus noise; a trial scores
    1 - ||x - y||^2 / (2 dim), which is skewed within each pair.  Every
    speaker is a target with all others as impostors (n_utts^2 scores per
    pair).  Target trials are the unordered utterance pairs of one speaker;
    non-target trials are each unordered speaker pair's full block.
    """
    g = np.random.default_rng([seed, 2])
    identity = g.normal(0.0, spread, (n_speakers, 1, dim))
    emb = (identity + g.normal(0.0, noise, (n_speakers, n_utts, dim))).reshape(-1, dim)
    sim = 1.0 - cdist(emb, emb, "sqeuclidean") / (2.0 * dim)
    blocks = sim.reshape(n_speakers, n_utts, n_speakers, n_utts).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(n_speakers, n_speakers, n_utts * n_utts)
    off_diag = ~np.eye(n_speakers, dtype=bool)
    scores = blocks[off_diag].reshape(n_speakers, n_speakers - 1, n_utts * n_utts)
    ids = [f"s{i:04d}" for i in range(n_speakers)]
    impostor_ids = [[ids[j] for j in range(n_speakers) if j != i] for i in range(n_speakers)]
    iu = np.triu_indices(n_utts, k=1)
    target = np.concatenate(
        [sim[i * n_utts : (i + 1) * n_utts, i * n_utts : (i + 1) * n_utts][iu] for i in range(n_speakers)]
    )
    upper = np.triu_indices(n_speakers, k=1)
    nontarget = blocks[upper].reshape(-1)
    return Corpus(np.ascontiguousarray(scores), ids, impostor_ids), target, nontarget


def write_corpus_csv(corpus: Corpus, path: Path) -> None:
    l = corpus.scores.shape[2]
    prefixes = [f"{t},{i}," for t, imps in zip(corpus.target_ids, corpus.impostor_ids) for i in imps]
    values = map(repr, corpus.scores.reshape(-1).tolist())
    lines = [p + v for p, v in zip((p for p in prefixes for _ in range(l)), values)]
    path.write_text("target_id,impostor_id,score\n" + "\n".join(lines) + "\n")


def write_labeled_csv(target: np.ndarray, nontarget: np.ndarray, path: Path) -> None:
    lines = ["target," + repr(s) for s in target.tolist()]
    lines += ["nontarget," + repr(s) for s in nontarget.tolist()]
    path.write_text("label,score\n" + "\n".join(lines) + "\n")


def write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
