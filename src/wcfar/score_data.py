"""Ingestion and indexing of non-target trial scores grouped by speaker pair.

A corpus nests target speakers over impostor speakers over detection
scores.  The loader accepts two row-oriented wire formats:

  CSV    header ``target_id,impostor_id,score``
  JSONL  one object ``{"target": ..., "impostor": ..., "score": ...}`` per line

Scores are kept at full double precision; no calibration or normalisation
is applied.  Loading is deterministic: targets and impostors are sorted by
identifier (code point order), scores keep input order within a pair.

Every file is read once, front to back, as the UTF-8 lines that `_lines`
decodes from it; a pipe is parsed as it streams.  `_lines` raises ParseError
at the first line that holds a byte that is not UTF-8.  On these lines
`_csv_rows` runs `csv.reader` and `_jsonl_rows` reads one object per line;
both only tokenise.  They and `PackedCorpus.from_groups` hand blocks of
columns to `_validated`, the only place where row rules run.  A reader's
own fault, a bad byte's included, is raised after the rows before it are
checked, so the first fault in a file wins.  Every fault names the
physical line on which its row starts.

`_cached` saves the arrays of each successful load in
``$XDG_CACHE_HOME/wcfar`` (else ``$HOME/.cache/wcfar``), one ``.npz`` entry
per SHA-256 of the loader kind, this module's source, numpy's version and
the file's bytes, so a later load of the same bytes reads them back instead
of parsing.  The directory keeps the `_CACHE_ENTRIES` most recently used
entries.  A failed parse is never saved, and any fault of the cache falls
back to the parse.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import tempfile
import zipfile
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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


_LABELS = ("target", "nontarget")
_BLOCK_ROWS = 1 << 13  # rows per block from the row readers


def _intern(field: np.ndarray, index: dict[str, int]) -> np.ndarray:
    """Codes of `field`'s ids in `index`, which gains the new ones; runs of one id are looked up once."""
    head = np.flatnonzero(np.concatenate(([True], field[1:] != field[:-1])))
    code = np.array([index.setdefault(name, len(index)) for name in field[head].tolist()], dtype=np.int64)
    return np.repeat(code, np.diff(np.append(head, field.size)))


def _cast(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`cells` read as `float` reads them, and which of them are not a number (they read 0)."""
    try:
        return cells.astype(float), np.zeros(cells.size, dtype=bool)
    except (ValueError, OverflowError):
        values, not_number = np.zeros(cells.size), np.zeros(cells.size, dtype=bool)
    for k, cell in enumerate(cells.tolist()):
        try:
            values[k] = float(cell)
        except (ValueError, OverflowError):
            not_number[k] = True
    return values, not_number


def _validated(blocks, labels: bool = False):
    """Intern, cast and check column blocks: ``(names, codes, scores)``.

    A block holds an id array per id column (the label, in a label file),
    the score cells and each row's line.  The first row with an empty id,
    the same target and impostor, a label not in `_LABELS`, a score that is
    not a number or one that is not finite raises ParseError for the first
    of these rules, in this order, that it breaks.
    """
    index = [{label: code for code, label in enumerate(_LABELS)}] if labels else [{}, {}]
    codes, scores = [array("q") for _ in index], array("d")
    for fields, cells, lines in blocks:
        block_codes = [_intern(field, seen) for field, seen in zip(fields, index)]
        values, not_number = _cast(cells)
        if labels:  # a label other than those in `_LABELS` has a higher code
            rules = [(block_codes[0] >= len(_LABELS), "label {id!r} is not 'target' or 'nontarget'")]
        else:
            empty = np.logical_or(*(code == seen.get("", -1) for code, seen in zip(block_codes, index)))
            same = fields[0] == fields[1]
            rules = [(empty, "empty speaker identifier"), (same, "target and impostor are the same speaker {id!r}")]
        rules += [(not_number, "score {cell!r} is not a number"), (~np.isfinite(values), "score {cell!r} is not finite")]
        bad = np.logical_or.reduce([broken for broken, _ in rules])
        if bad.any():
            row = int(bad.argmax())
            id_, cell = (column[row : row + 1].tolist()[0] for column in (fields[0], cells))
            message = next(message for broken, message in rules if broken[row])
            raise ParseError(message.format(id=id_, cell=cell), lines[row])
        for out, code in zip(codes, block_codes):
            out.frombytes(code.view(np.uint8))
        scores.frombytes(values.view(np.uint8))
    return (
        [list(seen) for seen in index],
        [np.frombuffer(c, dtype=np.int64) for c in codes],
        np.frombuffer(scores, dtype=float),
    )


def _block(rows: list[tuple], lines: list, clean) -> tuple:
    """A row reader's ``(*ids, cell)`` rows as a column block, each id passed through `clean`."""
    *ids, cells = (list(map(itemgetter(k), rows)) for k in range(len(rows[0])))
    return [np.array(list(map(clean, field)), dtype=object) for field in ids], np.array(cells, dtype=object), lines


_ESCAPED = re.compile("[\udc80-\udcff]")  # what "surrogateescape" makes of a byte that is not UTF-8


def _lines(fh, newline: str | None):
    """The lines of binary file `fh` as UTF-8 text; ParseError at the first that holds a byte that is not."""
    text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline=newline)
    try:
        for line, raw in enumerate(text, start=1):
            if not raw.isascii() and _ESCAPED.search(raw):
                raise ParseError("not valid UTF-8", line)
            yield raw
    finally:
        if not fh.closed:  # else dropping `text` would close `fh`
            text.detach()


def _csv_rows(fh, names: tuple[str, ...], header_fault: str):
    """Column blocks of the fields `names` of the CSV rows of binary file `fh`.

    The first row is the header, whose fields are stripped and must include
    `names` (else `header_fault`).  Blank rows are skipped.  A row with
    another field count, or that `csv.reader` cannot read, raises ParseError
    after the rows before it are yielded.
    """
    reader = csv.reader(_lines(fh, ""))
    line = 1  # the line on which the next row starts
    rows, lines, fault = [], [], None
    try:
        if (header := next(reader, None)) is None:
            raise ParseError("empty file", 1)
        header, line = [field.strip() for field in header], reader.line_num + 1
        if missing := [name for name in names if name not in header]:
            raise ParseError(header_fault.format(missing=missing, header=header), 1)
        get = itemgetter(*(header.index(name) for name in names))
        for row in reader:
            start, line = line, reader.line_num + 1
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", start)
            rows.append(get(row))
            lines.append(start)
            if len(rows) == _BLOCK_ROWS:
                yield _block(rows, lines, str.strip)
                rows, lines = [], []
    except csv.Error as exc:  # a field beyond csv's size limit, say
        fault = ParseError(str(exc), line)
    except ParseError as exc:
        fault = exc
    if rows:
        yield _block(rows, lines, str.strip)
    if fault is not None:
        raise fault


def _jsonl_rows(fh):
    """Column blocks of JSONL binary file `fh`; a line's fault is raised after the rows before it."""
    rows, lines, fault = [], [], None
    try:
        for line, raw in enumerate(_lines(fh, None), start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except ValueError as exc:  # an integer beyond int's digit limit is no JSONDecodeError
                raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line) from exc
            if not isinstance(obj, dict):
                raise ParseError("row is not an object", line)
            try:
                row = obj["target"], obj["impostor"], obj["score"]
            except KeyError:
                missing = [k for k in ("target", "impostor", "score") if k not in obj]
                raise ParseError(f"missing key(s) {missing}", line) from None
            if type(row[2]) not in (int, float):  # JSON values are of exact types, so a bool fails
                raise ParseError(f"score {row[2]!r} is not a number", line)
            if type(row[0]) not in (str, int) or type(row[1]) not in (str, int):
                speaker = row[1] if type(row[0]) in (str, int) else row[0]
                raise ParseError(f"speaker identifier {speaker!r} is not a string or an integer", line)
            rows.append(row)
            lines.append(line)
            if len(rows) == _BLOCK_ROWS:
                yield _block(rows, lines, str)
                rows, lines = [], []
    except ParseError as exc:
        fault = exc
    if rows:
        yield _block(rows, lines, str)
    if fault is not None:
        raise fault


_CACHE_ENTRIES = 16
# what np.load raises on a truncated or foreign entry (TypeError: an .npy array is no context
# manager), and what the checks below raise on one whose arrays disagree
_CACHE_FAULTS = (OSError, ValueError, EOFError, KeyError, TypeError, zipfile.BadZipFile)


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/wcfar``, else ``$HOME/.cache/wcfar``; None when neither is an absolute path."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(xdg) if os.path.isabs(xdg) else Path(os.environ.get("HOME", ""), ".cache")
    return base / "wcfar" if base.is_absolute() else None


def _cache_key(fh, kind: str) -> str:
    """SHA-256 of `kind`, this module's source, numpy's version and the rest of binary file `fh`."""
    import hashlib  # loads OpenSSL (~5 ms), which only loaders need

    digest = hashlib.sha256()
    for part in (kind.encode(), Path(__file__).read_bytes(), np.__version__.encode()):
        digest.update(len(part).to_bytes(8, "little") + part)
    while chunk := fh.read(1 << 20):
        digest.update(chunk)
    return digest.hexdigest()


def _read_entry(entry: Path, from_arrays):
    """`from_arrays` of cache entry `entry`, whose mtime is refreshed; None if it is missing or bad."""
    try:
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            loaded = from_arrays(npz)
    except _CACHE_FAULTS:
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return loaded


def _write_entry(entry: Path, arrays: dict[str, np.ndarray]) -> None:
    """Save `arrays` as `entry` through a temporary file, then delete all but the newest `_CACHE_ENTRIES` files."""
    with contextlib.suppress(OSError):  # a file another process deleted meanwhile skips the deletions
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with open(fd, "wb") as out:
                np.savez(out, **arrays)
            os.replace(temp, entry)
        finally:
            Path(temp).unlink(missing_ok=True)
        files = sorted(entry.parent.iterdir(), key=lambda path: path.stat().st_mtime_ns, reverse=True)
        for old in files[_CACHE_ENTRIES:]:
            old.unlink(missing_ok=True)


def _cached(path, kind: str, parse, to_arrays, from_arrays):
    """`parse(fh)` on binary file `path`, or `from_arrays` of what `to_arrays` saved of it for the same content.

    Only a regular file is cached, and only when its size and mtime did not
    change from before hashing to the end of a successful parse.
    """
    entry = None
    with open(path, "rb") as fh:
        before = os.fstat(fh.fileno())
        if stat.S_ISREG(before.st_mode) and (where := _cache_dir()) is not None:
            with contextlib.suppress(OSError):
                entry = where / f"{_cache_key(fh, kind)}.npz"
            fh.seek(0)
            if entry is not None and (loaded := _read_entry(entry, from_arrays)) is not None:
                return loaded
        result = parse(fh)
        after = os.fstat(fh.fileno())
    if entry is not None and (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns):
        _write_entry(entry, to_arrays(result))
    return result


def _entry_arrays(npz, **dtypes) -> list[np.ndarray]:
    """The arrays of a cache entry named by `dtypes`, each 1-D and of its dtype, or ValueError."""
    arrays = [npz[name] for name in dtypes]
    if any(a.ndim != 1 or a.dtype != dtype for a, dtype in zip(arrays, dtypes.values())):
        raise ValueError("foreign cache entry")
    return arrays


def _is_offsets(offsets: np.ndarray, total: int) -> bool:
    return offsets.size > 0 and offsets[0] == 0 and offsets[-1] == total and bool((np.diff(offsets) >= 0).all())


def _corpus_arrays(corpus: PackedCorpus) -> dict[str, np.ndarray]:
    """`corpus` as a cache entry; its target ids, then its pairs' impostor ids, are one UTF-8 text with offsets."""
    names = (*corpus.target_ids, *corpus.impostor_ids)
    lengths = np.fromiter(map(len, names), dtype=np.int64, count=len(names))
    return {
        # a JSON id may be a lone surrogate such as "\ud800"
        "names": np.frombuffer("".join(names).encode("utf-8", "surrogatepass"), dtype=np.uint8),
        "name_offsets": np.append(0, np.cumsum(lengths)),
        "target_offsets": corpus.target_offsets,
        "pair_offsets": corpus.pair_offsets,
        "scores": corpus.scores,
    }


def _corpus_from(npz) -> PackedCorpus:
    names, name_offsets, target_offsets, pair_offsets, scores = _entry_arrays(
        npz, names=np.uint8, name_offsets=np.int64, target_offsets=np.int64, pair_offsets=np.int64, scores=float
    )
    text = names.tobytes().decode("utf-8", "surrogatepass")
    n_targets, n_pairs = target_offsets.size - 1, pair_offsets.size - 1
    if not (
        _is_offsets(name_offsets, len(text))
        and name_offsets.size == n_targets + n_pairs + 1
        and _is_offsets(target_offsets, n_pairs)
        and _is_offsets(pair_offsets, scores.size)
    ):
        raise ValueError("inconsistent cache entry")
    bounds = name_offsets.tolist()
    ids = [text[start:end] for start, end in zip(bounds, bounds[1:])]
    return PackedCorpus(
        target_ids=tuple(ids[:n_targets]),
        impostor_ids=tuple(ids[n_targets:]),
        target_offsets=target_offsets,
        pair_target=np.repeat(np.arange(n_targets), np.diff(target_offsets)),
        pair_offsets=pair_offsets,
        scores=scores,
    )


def _labels_from(npz) -> LabeledScoreSet:
    target, nontarget = _entry_arrays(npz, target_scores=float, nontarget_scores=float)
    if not target.size or not nontarget.size:
        raise ValueError("inconsistent cache entry")
    return LabeledScoreSet(target_scores=target, nontarget_scores=nontarget)


FORMAT_BY_SUFFIX = {".csv": "csv", ".jsonl": "jsonl"}


def load_corpus(path, format: str | None = None) -> PackedCorpus:
    """Load and validate a non-target trial corpus from `path`.

    `format` is "csv" or "jsonl"; when omitted it is inferred from the file
    suffix.  The file is read row by row, and the first malformed row
    raises ParseError naming its line.  A file loaded before is read back
    from the cache (see `_cached`).
    """
    path = Path(path)
    if format is None:
        format = FORMAT_BY_SUFFIX.get(path.suffix.lower())
        if format is None:
            raise ParseError(f"cannot infer format from suffix {path.suffix!r}; pass format=")
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'jsonl'")
    return _cached(path, format, lambda fh: _parse_corpus(fh, format), _corpus_arrays, _corpus_from)


def _parse_corpus(fh, format: str) -> PackedCorpus:
    if format == "csv":
        blocks = _csv_rows(fh, ("target_id", "impostor_id", "score"), "missing column(s) {missing} in header {header}")
    else:
        blocks = _jsonl_rows(fh)
    (targets, impostors), (target_codes, impostor_codes), scores = _validated(blocks)
    if not scores.size:  # a JSONL file without rows has only blank lines
        raise ParseError("empty file" if format == "jsonl" else "file contains no data rows", 1)
    return PackedCorpus.from_codes(targets, impostors, target_codes, impostor_codes, scores)


def load_labeled_scores(path) -> LabeledScoreSet:
    """Load a ``label,score`` CSV with label in {target, nontarget}.

    The file is read row by row, and the first malformed row raises
    ParseError naming its line.  A file loaded before is read back from the
    cache (see `_cached`).
    """
    return _cached(path, "labels", _parse_labels, vars, _labels_from)


def _parse_labels(fh) -> LabeledScoreSet:
    header_fault = "expected header with 'label' and 'score', got {header}"
    blocks = _csv_rows(fh, ("label", "score"), header_fault)
    _, [codes], scores = _validated(blocks, labels=True)
    target, nontarget = (scores[codes == code] for code in range(len(_LABELS)))
    if not target.size or not nontarget.size:
        raise ParseError("file must contain at least one target and one nontarget score")
    return LabeledScoreSet(target_scores=target, nontarget_scores=nontarget)


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
        pairs = [(t, i, np.asarray(v, dtype=float).reshape(-1)) for t, by_i in groups.items() for i, v in by_i.items()]
        counts = [values.size for *_, values in pairs]
        fields = [np.repeat(np.array([pair[k] for pair in pairs], dtype=object), counts) for k in (0, 1)]
        cells = np.concatenate([np.empty(0), *(values for *_, values in pairs)])
        blocks = [(fields, cells, [None] * cells.size)] if cells.size else []
        (targets, impostors), (target_codes, impostor_codes), scores = _validated(blocks)
        targets += groups.keys() - set(targets)
        return cls.from_codes(targets, impostors, target_codes, impostor_codes, scores)

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

