"""Ingestion and indexing of non-target trial scores grouped by speaker pair.

A corpus nests target speakers over impostor speakers over detection
scores.  The loader accepts two row-oriented wire formats:

  CSV    header ``target_id,impostor_id,score``
  JSONL  one object ``{"target": ..., "impostor": ..., "score": ...}`` per line

Scores are kept at full double precision; no calibration or normalisation
is applied.  Loading is deterministic: targets and impostors are sorted by
identifier (code point order), scores keep input order within a pair.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=dtype))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LabeledScoreSet:
    """Target and non-target trial scores for threshold calibration."""

    target_scores: np.ndarray
    nontarget_scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target_scores", _frozen_array(self.target_scores))
        object.__setattr__(self, "nontarget_scores", _frozen_array(self.nontarget_scores))

    def __eq__(self, other):
        return (
            isinstance(other, LabeledScoreSet)
            and np.array_equal(self.target_scores, other.target_scores)
            and np.array_equal(self.nontarget_scores, other.nontarget_scores)
        )


def _parse_score(text_or_value, line: int) -> float:
    try:
        value = float(text_or_value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"score {text_or_value!r} is not a number", line) from None
    if not math.isfinite(value):
        raise ParseError(f"score {text_or_value!r} is not finite", line)
    return value


class _CorpusRows:
    """Validated rows as interned id codes and parsed scores, in compact arrays."""

    def __init__(self):
        self.targets: dict[str, int] = {}
        self.impostors: dict[str, int] = {}
        self.target_codes, self.impostor_codes, self.scores = array("q"), array("q"), array("d")

    def add(self, line: int | None, target_id: str, impostor_id: str, raw_score) -> None:
        if not target_id or not impostor_id:
            raise ParseError("empty speaker identifier", line)
        if target_id == impostor_id:
            raise ParseError(f"target and impostor are the same speaker {target_id!r}", line)
        self.target_codes.append(self.targets.setdefault(target_id, len(self.targets)))
        self.impostor_codes.append(self.impostors.setdefault(impostor_id, len(self.impostors)))
        self.scores.append(_parse_score(raw_score, line))

    def pack(self) -> PackedCorpus:
        return PackedCorpus.from_codes(
            list(self.targets),
            list(self.impostors),
            np.frombuffer(self.target_codes, dtype=np.int64),
            np.frombuffer(self.impostor_codes, dtype=np.int64),
            np.frombuffer(self.scores, dtype=float),
        )


def _blank(row: list[str]) -> bool:
    return not "".join(row).strip()


def _read_csv_rows(fh, add) -> None:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", 1) from None
    header = [h.strip() for h in header]
    required = ("target_id", "impostor_id", "score")
    try:
        t_col, i_col, s_col = [header.index(name) for name in required]
    except ValueError as exc:
        missing = [name for name in required if name not in header]
        raise ParseError(f"missing column(s) {missing} in header {header}", 1) from exc
    for line, row in enumerate(reader, start=2):
        try:
            target_id, impostor_id, raw_score = row[t_col].strip(), row[i_col].strip(), row[s_col]
        except IndexError:
            if _blank(row):
                continue
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line) from None
        if (not target_id or not impostor_id) and _blank(row):
            continue
        add(line, target_id, impostor_id, raw_score)


def _read_jsonl_rows(fh, add) -> None:
    any_row = False
    for line, raw in enumerate(fh, start=1):
        if not raw.strip():
            continue
        any_row = True
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line) from exc
        if not isinstance(obj, dict):
            raise ParseError("row is not an object", line)
        missing = [k for k in ("target", "impostor", "score") if k not in obj]
        if missing:
            raise ParseError(f"missing key(s) {missing}", line)
        score = obj["score"]
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise ParseError(f"score {score!r} is not a number", line)
        add(line, str(obj["target"]), str(obj["impostor"]), score)
    if not any_row:
        raise ParseError("empty file", 1)


FORMAT_BY_SUFFIX = {".csv": "csv", ".jsonl": "jsonl"}


def load_corpus(path, format: str | None = None) -> PackedCorpus:
    """Load and validate a non-target trial corpus from `path` in one pass.

    `format` is "csv" or "jsonl"; when omitted it is inferred from the file
    suffix.  Any malformed row raises ParseError naming the line number.
    """
    path = Path(path)
    if format is None:
        format = FORMAT_BY_SUFFIX.get(path.suffix.lower())
        if format is None:
            raise ParseError(f"cannot infer format from suffix {path.suffix!r}; pass format=")
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'jsonl'")
    read = _read_csv_rows if format == "csv" else _read_jsonl_rows
    rows = _CorpusRows()
    with open(path, newline="" if format == "csv" else None) as fh:
        read(fh, rows.add)
    if not rows.scores:
        raise ParseError("file contains no data rows", 1)
    return rows.pack()


def load_labeled_scores(path) -> LabeledScoreSet:
    """Load a ``label,score`` CSV with label in {target, nontarget}."""
    buckets = {"target": array("d"), "nontarget": array("d")}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty file", 1) from None
        try:
            label_col, score_col = header.index("label"), header.index("score")
        except ValueError:
            raise ParseError(f"expected header with 'label' and 'score', got {header}", 1) from None
        for line, row in enumerate(reader, start=2):
            if _blank(row):
                continue
            try:
                label, raw_score = row[label_col].strip(), row[score_col]
            except IndexError:
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line) from None
            if label not in buckets:
                raise ParseError(f"label {label!r} is not 'target' or 'nontarget'", line)
            buckets[label].append(_parse_score(raw_score, line))
    if not buckets["target"] or not buckets["nontarget"]:
        raise ParseError("file must contain at least one target and one nontarget score")
    return LabeledScoreSet(
        target_scores=np.frombuffer(buckets["target"], dtype=float),
        nontarget_scores=np.frombuffer(buckets["nontarget"], dtype=float),
    )


def _rank(names: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Rank of each name in code point order, and the names in that order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    return np.argsort(np.array(order, dtype=np.int64)), tuple(names[k] for k in order)


def _skewness(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Bias-corrected (adjusted Fisher-Pearson) skewness of each segment.

    Segment k is ``x[offsets[k]:offsets[k+1]]``, and every segment must be
    non-empty.  NaN where a segment has fewer than 3 values or zero range.
    Constant segments are found by their range: their computed mean can be
    off by one ulp, which leaves a tiny second moment and a skewness of
    about +-2.449 instead of none.
    """
    starts = offsets[:-1]
    counts = np.diff(offsets)
    n = counts.astype(float)
    centered = x - np.repeat(np.add.reduceat(x, starts) / n, counts)
    m2 = np.add.reduceat(centered**2, starts) / n
    m3 = np.add.reduceat(centered**3, starts) / n
    varies = np.maximum.reduceat(x, starts) > np.minimum.reduceat(x, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        g1 = m3 / m2**1.5 * np.sqrt(n * (n - 1.0)) / (n - 2.0)
    return np.where((n >= 3) & varies, g1, np.nan)


def sample_skewness(values) -> float | None:
    """Bias-corrected (adjusted Fisher-Pearson) sample skewness.

    Returns None when fewer than 3 values or when all values are equal.
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    if x.size < 3:
        return None
    g1 = _skewness(x, np.array([0, x.size]))[0]
    return None if math.isnan(g1) else float(g1)


_ARRAY_FIELDS = ("target_offsets", "pair_target", "pair_offsets", "scores")


@dataclass(frozen=True, eq=False)
class PackedCorpus:
    """A corpus as flat, read-only arrays for vectorised estimation and inference.

    Pairs are enumerated target-major, so each target owns the contiguous
    pair range ``target_offsets[i]:target_offsets[i+1]``; pair ``p`` owns the
    contiguous score range ``pair_offsets[p]:pair_offsets[p+1]`` and has
    impostor ``impostor_ids[p]``.  `from_codes`, which every loader and
    generator goes through, orders targets and the impostors within a
    target by id.
    """

    target_ids: tuple[str, ...]
    impostor_ids: tuple[str, ...]  # (P,) impostor of each pair
    target_offsets: np.ndarray  # (T+1,) pair ranges
    pair_target: np.ndarray  # (P,) owning target of each pair
    pair_offsets: np.ndarray  # (P+1,) score ranges
    scores: np.ndarray  # flat score values

    def __post_init__(self):
        for name in _ARRAY_FIELDS:
            dtype = float if name == "scores" else np.int64
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))

    def __eq__(self, other):
        return (
            isinstance(other, PackedCorpus)
            and self.target_ids == other.target_ids
            and self.impostor_ids == other.impostor_ids
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _ARRAY_FIELDS)
        )

    @classmethod
    def from_codes(
        cls,
        target_names: Sequence[str],
        impostor_names: Sequence[str],
        target_codes: np.ndarray,
        impostor_codes: np.ndarray,
        scores: np.ndarray,
    ) -> PackedCorpus:
        """Pack rows given as indices into the two name lists.

        Targets, and the impostors within a target, are ordered by id in
        code point order; rows of one pair keep their order.  Every target
        name is kept, even one without rows.
        """
        target_rank, target_ids = _rank(target_names)
        impostor_rank, impostor_sorted = _rank(impostor_names)
        width = max(len(impostor_names), 1)
        key = target_rank[target_codes] * width + impostor_rank[impostor_codes]
        if np.any(key[1:] < key[:-1]):  # rows already in id order, as generated ones are, need no sort
            order = np.argsort(key, kind="stable")
            key, scores = key[order], scores[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        pair_key = key[first]
        pair_target = pair_key // width
        return cls(
            target_ids=target_ids,
            impostor_ids=tuple(impostor_sorted[k] for k in (pair_key % width).tolist()),
            target_offsets=np.searchsorted(pair_target, np.arange(len(target_ids) + 1)),
            pair_target=pair_target,
            pair_offsets=np.append(np.flatnonzero(first), key.size),
            scores=scores,
        )

    @classmethod
    def from_groups(cls, groups: Mapping[str, Mapping[str, Sequence[float]]]) -> PackedCorpus:
        """Pack ``{target_id: {impostor_id: scores}}`` as `load_corpus` would.

        A target may have no impostors; a pair without scores is left out.
        """
        rows = _CorpusRows()
        for target_id, pairs in groups.items():
            rows.targets.setdefault(target_id, len(rows.targets))
            for impostor_id, values in pairs.items():
                for value in np.asarray(values, dtype=float).reshape(-1).tolist():
                    rows.add(None, target_id, impostor_id, value)
        return rows.pack()

    @property
    def n_targets(self) -> int:
        return len(self.target_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_target)

    @property
    def n_scores(self) -> int:
        return self.scores.size

    @cached_property
    def pair_count(self) -> np.ndarray:
        return np.diff(self.pair_offsets)

    @cached_property
    def pairs_per_target(self) -> np.ndarray:
        return np.diff(self.target_offsets)

    @cached_property
    def pair_sums(self) -> np.ndarray:
        """Per-pair sum of scores."""
        return np.add.reduceat(self.scores, self.pair_offsets[:-1])

    @cached_property
    def pair_centered_ss(self) -> np.ndarray:
        """Per-pair sum of squared deviations from the pair mean.

        Two-pass computation: exact for constant pairs and free of the
        cancellation that the raw-moment expansion suffers.
        """
        centered = self.scores - np.repeat(self.pair_means(), self.pair_count)
        return np.add.reduceat(centered**2, self.pair_offsets[:-1])

    def pair_means(self) -> np.ndarray:
        return self.pair_sums / self.pair_count

    @cached_property
    def pair_rank(self) -> np.ndarray:
        """Each pair's rank by mean within its target, 0 for the highest;
        tied means rank the lower pair index first."""
        order = np.lexsort((np.arange(self.n_pairs), -self.pair_means(), self.pair_target))
        rank = np.empty(self.n_pairs, dtype=np.int64)
        # sorting by target first keeps every pair's position within its target's range
        rank[order] = np.arange(self.n_pairs) - self.target_offsets[self.pair_target]
        return rank

    def pair_variances(self) -> np.ndarray:
        """Unbiased per-pair sample variance; NaN where fewer than 2 scores."""
        n = self.pair_count.astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            v = self.pair_centered_ss / (n - 1.0)
        return np.where(n >= 2, v, np.nan)

    def pair_skewness(self) -> np.ndarray:
        """Per-pair `sample_skewness`; NaN where it is undefined."""
        return _skewness(self.scores, self.pair_offsets)

    def pair_exceed_fraction(self, tau: float) -> np.ndarray:
        """Per-pair fraction of scores strictly above `tau`."""
        hits = np.add.reduceat((self.scores > tau).astype(float), self.pair_offsets[:-1])
        return hits / self.pair_count

