"""Synthetic score corpora with known ground truth.

Two generators back the validation loop without any real recordings:

  * `generate_model_corpus` draws a corpus directly from the hierarchical
    score model, so inference can be checked against the exact
    hyper-parameters that produced the data.

  * `generate_toy_asv_corpus` builds a miniature verification pipeline:
    speaker identities are isotropic Gaussians in an embedding space,
    utterances are noisy observations of the identity, and the score of an
    utterance pair is a distance-based similarity.  This produces both a
    non-target corpus and labelled target/non-target scores for threshold
    calibration, with approximately Gaussian per-pair score distributions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import Hyperparameters, _sample_targets
from .score_data import LabeledScoreSet, PackedCorpus
from .streams import RngStream


def _require(kind: type, spec, names: tuple[str, ...]) -> None:
    """Each named field must be an instance of `kind`; a bool never is."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Counts and ground-truth parameters for a model-generated corpus."""

    theta: Hyperparameters
    t_targets: int
    n_impostors_per_target: int
    l_scores_per_pair: int
    seed: int

    def __post_init__(self):
        counts = ("t_targets", "n_impostors_per_target", "l_scores_per_pair")
        _require(numbers.Integral, self, counts + ("seed",))
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class ToyAsvSpec:
    """Embedding-space pipeline parameters for the toy verification system."""

    embedding_dim: int
    speaker_spread: float
    utterance_noise: float
    n_speakers: int
    n_utts_per_speaker: int
    seed: int

    def __post_init__(self):
        _require(numbers.Integral, self, ("embedding_dim", "n_speakers", "n_utts_per_speaker", "seed"))
        _require(numbers.Real, self, ("speaker_spread", "utterance_noise"))
        if self.embedding_dim < 1 or self.n_speakers < 1 or self.n_utts_per_speaker < 1:
            raise ValueError("dimensions and counts must be >= 1")
        if not (self.speaker_spread > 0 and self.utterance_noise > 0):
            raise ValueError("spread parameters must be positive")


def generate_model_corpus(spec: SyntheticSpec) -> PackedCorpus:
    """Sample a corpus from the hierarchical model, one stream per target.

    Per target the draw order is (m, lam, sigma_sq), then all pair means,
    then all scores, so corpora are reproducible and per-target generation
    is order-independent.  A target whose lam or sigma_sq draw underflows
    raises ValueError.
    """
    t, n, l = spec.t_targets, spec.n_impostors_per_target, spec.l_scores_per_pair
    root = RngStream(spec.seed)
    scores = np.empty((t, n, l))
    for i in range(t):
        g = root.child(i).generator()
        m, lam, sigma_sq = _sample_targets(spec.theta, None, g)
        mus = g.normal(m, math.sqrt(sigma_sq / lam), size=n)
        scores[i] = g.normal(mus[:, None], math.sqrt(sigma_sq), size=(n, l))
    return PackedCorpus.from_codes(
        [f"t{i + 1:04d}" for i in range(t)],
        [f"i{i + 1:04d}_{j + 1:04d}" for i in range(t) for j in range(n)],
        np.repeat(np.arange(t), n * l),
        np.repeat(np.arange(t * n), l),
        scores.reshape(-1),
    )


def generate_toy_asv_corpus(spec: ToyAsvSpec) -> tuple[PackedCorpus, LabeledScoreSet]:
    """Generate non-target trials plus labelled scores from the toy pipeline.

    Scores are 1 - ||x_e - x_t||^2 / (2 d): a monotone similarity that
    equals the constant 1 at zero distance.  Every speaker serves as a
    target with all other speakers as impostors; target trials take every
    unordered pair of a speaker's own utterances.
    """
    if spec.n_utts_per_speaker < 2:
        raise ValueError("need at least 2 utterances per speaker to form target trials")
    if spec.n_speakers < 2:
        raise ValueError("need at least 2 speakers to form non-target trials")
    d, k, u = spec.embedding_dim, spec.n_speakers, spec.n_utts_per_speaker
    root = RngStream(spec.seed)
    embeddings = np.empty((k, u, d))
    for s in range(k):
        g = root.child(s).generator()
        identity = g.normal(0.0, spec.speaker_spread, size=d)
        embeddings[s] = identity + g.normal(0.0, spec.utterance_noise, size=(u, d))

    flat = embeddings.reshape(k * u, d)
    sq_norm = np.einsum("ij,ij->i", flat, flat)
    gram = flat @ flat.T
    dist_sq = np.maximum(sq_norm[:, None] + sq_norm[None, :] - 2.0 * gram, 0.0)
    sim = 1.0 - dist_sq / (2.0 * d)

    # blocks[i, j] holds the u x u scores of speaker i's utterances against j's
    blocks = sim.reshape(k, u, k, u).transpose(0, 2, 1, 3).reshape(k, k, u * u)
    speaker_ids = [f"s{s + 1:04d}" for s in range(k)]
    others = ~np.eye(k, dtype=bool)
    corpus = PackedCorpus.from_codes(
        speaker_ids,
        speaker_ids,
        np.repeat(np.arange(k), (k - 1) * u * u),
        np.repeat(np.nonzero(others)[1], u * u),
        blocks[others].reshape(-1),
    )
    upper = np.triu_indices(u, k=1)
    labeled = LabeledScoreSet(
        target_scores=np.concatenate([blocks[i, i].reshape(u, u)[upper] for i in range(k)]),
        nontarget_scores=blocks[np.triu_indices(k, k=1)].reshape(-1),
    )
    return corpus, labeled
