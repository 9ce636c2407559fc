"""Synthetic score corpora with known ground truth.

Two block generators back the validation loop without any real recordings;
`wcfar simulate` writes their blocks as corpus rows:

  * `model_blocks` draws a corpus directly from the hierarchical score
    model, so inference can be checked against the exact hyper-parameters
    that produced the data.

  * `toy_asv_blocks` runs a miniature verification pipeline: speaker
    identities are isotropic Gaussians in an embedding space, utterances
    are noisy observations of the identity, and the score of an utterance
    pair is a distance-based similarity.  This gives both a non-target
    corpus and labelled target/non-target scores for threshold calibration,
    with approximately Gaussian per-pair score distributions.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import Hyperparameters, _sample_targets
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


Block = tuple[str, list[str], np.ndarray]


def _by_id(count: int) -> list[int]:
    """0 .. count-1 in the code point order of the ids numbered ``f"{k + 1:04d}"``, not index order past 9999."""
    return sorted(range(count), key=lambda k: f"{k + 1:04d}")


def model_blocks(spec: SyntheticSpec) -> Iterator[Block]:
    """Per target, in the order `PackedCorpus` keeps: its id, its impostors' ids and their scores, shaped (n, L).

    Target i draws from its own stream, child i of the seed: (m, lam,
    sigma_sq), then all pair means, then all scores, so corpora are
    reproducible and no target's draws depend on another's.  A target whose
    lam or sigma_sq draw underflows raises ValueError when it is reached.
    """
    n, l = spec.n_impostors_per_target, spec.l_scores_per_pair
    root = RngStream(spec.seed)
    impostors = np.array(_by_id(n))
    suffixes = [f"_{j + 1:04d}" for j in impostors.tolist()]
    for i in _by_id(spec.t_targets):
        g = root.child(i).generator()
        m, lam, sigma_sq = _sample_targets(spec.theta, None, g)
        mus = g.normal(m, math.sqrt(sigma_sq / lam), size=n)
        scores = g.normal(mus[:, None], math.sqrt(sigma_sq), size=(n, l))
        prefix = f"i{i + 1:04d}"
        yield f"t{i + 1:04d}", [prefix + suffix for suffix in suffixes], scores[impostors]


def toy_asv_blocks(spec: ToyAsvSpec) -> tuple[Iterator[Block], Iterator[tuple[str, np.ndarray]]]:
    """The toy pipeline's corpus blocks, as `model_blocks` yields them, and its labelled score blocks.

    Scores are 1 - ||x_e - x_t||^2 / (2 d): a monotone similarity that
    equals the constant 1 at zero distance.  Every speaker serves as a
    target with all other speakers as impostors; target trials take every
    unordered pair of a speaker's own utterances.  The similarity of all
    utterance pairs is computed here, in place; the label blocks are
    ``("target", scores)`` per speaker, then ``("nontarget", scores)`` per
    speaker against every later one, in index order.
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
    sim = flat @ flat.T
    for s in range(k):  # sim = 1 - max(|x|^2 + |y|^2 - 2 x.y, 0) / (2 d), one speaker's rows at a time
        rows = sim[s * u : (s + 1) * u]
        np.subtract(sq_norm[s * u : (s + 1) * u, None] + sq_norm, 2.0 * rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        rows /= 2.0 * d
        np.subtract(1.0, rows, out=rows)
    # against[s][j, a, b] is the score of speaker s's utterance a against speaker j's utterance b
    against = sim.reshape(k, u, k, u).transpose(0, 2, 1, 3)
    speaker_ids = [f"s{s + 1:04d}" for s in range(k)]
    order = _by_id(k)

    def corpus():
        for s in order:
            others = [j for j in order if j != s]
            yield speaker_ids[s], [speaker_ids[j] for j in others], against[s, others].reshape(k - 1, u * u)

    def labels():
        upper = np.triu_indices(u, k=1)
        for s in range(k):
            yield "target", against[s, s][upper]
        for s in range(k - 1):
            yield "nontarget", against[s, s + 1 :].reshape(-1)

    return corpus(), labels()

