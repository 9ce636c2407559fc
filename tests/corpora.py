"""Test corpora packed in memory as `load_corpus` packs the rows of a file: from the blocks of
`wcfar.synthetic`, or from a ``{target: {impostor: scores}}`` dict; and the traced memory peak
of a call."""

import tracemalloc

import numpy as np

from wcfar.score_data import LabeledScoreSet, PackedCorpus


def pack(blocks, empty_targets=()):
    """The corpus of ``(target, impostor ids, scores shaped (pairs, L))`` blocks, one run of rows per
    pair; each of `empty_targets` is kept as a target without pairs."""
    targets, impostors, target_codes, impostor_codes, counts, scores = {}, {}, [], [], [], [np.empty(0)]
    for target_id, impostor_ids, block in blocks:
        target_codes += [targets.setdefault(target_id, len(targets))] * len(impostor_ids)
        impostor_codes += [impostors.setdefault(name, len(impostors)) for name in impostor_ids]
        counts += [block.shape[1]] * block.shape[0]
        scores.append(block.reshape(-1))
    arrays = (np.array(a, dtype=np.int64) for a in (target_codes, impostor_codes, counts))
    return PackedCorpus.from_codes([*targets, *empty_targets], list(impostors), *arrays, np.concatenate(scores))


def groups(mapping):
    """`pack` of one block per pair of `mapping`: a pair without scores is left out, and a target
    without pairs is kept."""
    blocks = [(t, [i], np.asarray(v, dtype=float).reshape(1, -1)) for t, by_i in mapping.items()
              for i, v in by_i.items() if np.size(v)]
    return pack(blocks, mapping.keys() - {t for t, _, _ in blocks})


def labeled(label_blocks):
    """The `LabeledScoreSet` of ``(label, scores)`` blocks, as `toy_asv_blocks` yields them."""
    scores = {"target": [], "nontarget": []}
    for label, block in label_blocks:
        scores[label].append(block)
    return LabeledScoreSet(np.concatenate(scores["target"]), np.concatenate(scores["nontarget"]))


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), the peak bytes that tracemalloc traced during the call)``."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
