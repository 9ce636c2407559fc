"""Ingestion and indexing of non-target trial scores grouped by speaker pair.

A corpus nests target speakers over impostor speakers over detection
scores.  The loader accepts two row-oriented wire formats:

  CSV    header ``target_id,impostor_id,score``
  JSONL  one object ``{"target": ..., "impostor": ..., "score": ...}`` per line

Scores are kept at full double precision; no calibration or normalisation
is applied.  Loading is deterministic: the distinct target ids and the
distinct impostor ids are each kept once, sorted in code point order, and
every pair refers to its target and impostor by index; scores keep input
order within a pair.

Every file is read once, front to back, as the UTF-8 lines that `_lines`
decodes from it, less a leading byte-order mark; a pipe is parsed as it
streams.  `_lines` raises ParseError at the first line that holds a byte
that is not UTF-8.  On these lines `_csv_rows` runs `csv.reader` and
`_jsonl_rows` reads one object per line; both only tokenise, yield one
``(line, *ids, cell)`` tuple per row and raise ParseError at their own
fault.  `_validated` batches these rows; it is the only place where row
rules run and where the fault to report is chosen.  It finds each batch's
runs of rows with the same ids in one pass, and checks the ids once per
run and the score of every row.  A reader's fault, a bad byte's
included, is raised after the rows before it are checked, so the first
fault in a file wins.  Every fault names the physical line on which its
row starts.

`_cached` saves the arrays of each successful load, which are all that
its record holds, in ``$XDG_CACHE_HOME/wcfar`` (else ``$HOME/.cache/wcfar``),
one ``.npz`` entry per SHA-256 of the loader kind, this module's source,
numpy's version and the file's bytes, so a later load of the same bytes
reads them back instead of parsing.  The directory keeps the
`_CACHE_ENTRIES` most recently used entries.  A failed parse is never saved, and any fault of the cache falls
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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import NumericError, ParseError


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=dtype))
    arr.flags.writeable = False
    return arr


class _Record:
    """A record of read-only 1-D arrays, each named with its dtype in its class's `ARRAYS`: they are
    all that it holds, all that `__eq__` compares and all that its cache entry saves."""

    ARRAYS: dict[str, type]

    def __post_init__(self):
        for name, dtype in self.ARRAYS.items():
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))

    def __eq__(self, other):
        same = type(other) is type(self)
        return same and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in self.ARRAYS)


@dataclass(frozen=True, eq=False)
class LabeledScoreSet(_Record):
    """Target and non-target trial scores for threshold calibration; neither
    array is empty, and every score is finite."""

    ARRAYS = {"target_scores": float, "nontarget_scores": float}

    target_scores: np.ndarray
    nontarget_scores: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        for name in self.ARRAYS:
            if not getattr(self, name).size:
                raise ValueError(f"{name} is empty")
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} holds a score that is not finite")


_LABELS = ("target", "nontarget")
_BLOCK_ROWS = 1 << 11  # rows per batch that `_validated` checks
_BLOCK_SCORES = 1 << 16  # scores per block of whole pairs that the per-pair reductions take at a time


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


def _validated(rows, clean, labels: bool = False):
    """Batch, intern, cast and check an iterator of ``(line, *ids, cell)`` rows: ``(names, codes, counts, scores)``.

    The ids are the target and impostor (the label, in a label file), each
    passed through `clean`.  Rows are read `_BLOCK_ROWS` at a time, and each
    batch is cut once into runs, maximal stretches of consecutive rows with
    the same ids: `codes` holds each run's code per id column and `counts`
    its rows, so only `scores` has one entry per row.  A run that goes on
    from the last batch's last run extends it.  An id rule holds for every
    row of a run or for none, so each run's ids are checked once.  The first
    row with an empty id, the same target and impostor, a label not in
    `_LABELS`, a score that is not a number or one that is not finite raises
    ParseError for the first of these rules, in this order, that it breaks.
    A ParseError that `rows` raises is raised after the rows before it are
    checked, so the first fault in a file wins.
    """
    index = [{label: code for code, label in enumerate(_LABELS)}] if labels else [{}, {}]
    # a code is a C int, as no process holds 2**31 distinct ids; a run may exceed 2**31 rows
    codes, counts, scores = [array("i") for _ in index], array("q"), array("d")
    fault = None
    while fault is None:
        batch = []
        try:
            batch.extend(islice(rows, _BLOCK_ROWS))  # keeps the rows read before a reader's fault
        except ParseError as exc:
            fault = exc
        if not batch:
            break
        last = len(batch[0]) - 1  # the cell's place; the ids sit between the line and the cell
        fields = [np.fromiter(map(clean, map(itemgetter(k), batch)), object, len(batch)) for k in range(1, last)]
        heads = np.flatnonzero(np.logical_or.reduce([np.append(True, f[1:] != f[:-1]) for f in fields]))
        runs = np.diff(np.append(heads, len(batch)))
        ids = [field[heads] for field in fields]  # each run's ids
        run_codes = [np.array([seen.setdefault(name, len(seen)) for name in names.tolist()], dtype=np.intc)
                     for names, seen in zip(ids, index)]
        values, not_number = _cast(np.fromiter(map(itemgetter(last), batch), object, len(batch)))
        if labels:  # a label other than those in `_LABELS` has a higher code
            run_rules = [(run_codes[0] >= len(_LABELS), "label {id!r} is not 'target' or 'nontarget'")]
        else:
            empty = np.logical_or(*(code == seen.get("", -1) for code, seen in zip(run_codes, index)))
            same = ids[0] == ids[1]
            run_rules = [(empty, "empty speaker identifier"), (same, "target and impostor are the same speaker {id!r}")]
        row_rules = [(not_number, "score {cell!r} is not a number"),
                     (~np.isfinite(values), "score {cell!r} is not finite")]
        bad = np.logical_or.reduce([broken for broken, _ in row_rules])
        bad |= np.repeat(np.logical_or.reduce([broken for broken, _ in run_rules]), runs)
        if bad.any():
            row = int(bad.argmax())
            run = int(np.searchsorted(heads, row, side="right")) - 1
            message = next(m for rules, k in ((run_rules, run), (row_rules, row)) for broken, m in rules if broken[k])
            raise ParseError(message.format(id=ids[0][run], cell=batch[row][last]), batch[row][0])
        if counts and all(out[-1] == code[0] for out, code in zip(codes, run_codes)):
            counts[-1] += int(runs[0])
            run_codes, runs = [code[1:] for code in run_codes], runs[1:]
        for out, code in zip(codes, run_codes):
            out.frombytes(code.view(np.uint8))
        counts.frombytes(runs.view(np.uint8))
        scores.frombytes(values.view(np.uint8))
    if fault is not None:
        raise fault
    return (
        [list(seen) for seen in index],
        [np.frombuffer(c, dtype=np.intc) for c in codes],
        np.frombuffer(counts, dtype=np.int64),
        np.frombuffer(scores, dtype=float),
    )


_ESCAPED = re.compile("[\udc80-\udcff]")  # what "surrogateescape" makes of a byte that is not UTF-8


def _lines(fh, newline: str | None):
    """The lines of binary file `fh` as UTF-8 text, a leading byte-order mark dropped; ParseError at the
    first that holds a byte that is not."""
    text = io.TextIOWrapper(fh, encoding="utf-8-sig", errors="surrogateescape", newline=newline)
    try:
        for line, raw in enumerate(text, start=1):
            if not raw.isascii() and _ESCAPED.search(raw):
                raise ParseError("not valid UTF-8", line)
            yield raw
    finally:
        if not fh.closed:  # else dropping `text` would close `fh`
            text.detach()


def _csv_rows(fh, names: tuple[str, ...], header_fault: str):
    """``(line, *fields)`` of the fields `names` of each CSV row of binary file `fh`.

    The first row is the header, whose fields are stripped and must include
    `names` (else `header_fault`).  Empty and whitespace-only lines are
    skipped; a quoted blank field is a row.  A row with another field count,
    or that `csv.reader` cannot read, raises ParseError.
    """
    raw = ""  # the last physical line read

    def track(lines):
        nonlocal raw
        for raw in lines:
            yield raw

    reader = csv.reader(track(_lines(fh, "")))
    line = 1  # the line on which the next row starts
    try:
        if (header := next(reader, None)) is None:
            raise ParseError("empty file", 1)
        header, line = [field.strip() for field in header], reader.line_num + 1
        if missing := [name for name in names if name not in header]:
            raise ParseError(header_fault.format(missing=missing, header=header), 1)
        width = len(header)  # at least the 2 or 3 `names`, so an empty line's row is never as wide
        get = itemgetter(width, *(header.index(name) for name in names))  # the line, then `names`
        for row in reader:
            start, line = line, reader.line_num + 1
            if len(row) != width:
                if len(row) < 2 and line - start == 1 and not raw.strip():
                    continue  # an empty or whitespace-only line
                raise ParseError(f"expected {width} fields, got {len(row)}", start)
            row.append(start)
            yield get(row)
    except csv.Error as exc:  # a field beyond csv's size limit, say
        raise ParseError(str(exc), line) from None


def _jsonl_rows(fh):
    """``(line, target, impostor, score)`` of each object of JSONL binary file `fh`; ParseError at a bad line."""
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
            row = line, obj["target"], obj["impostor"], obj["score"]
        except KeyError:
            missing = [k for k in ("target", "impostor", "score") if k not in obj]
            raise ParseError(f"missing key(s) {missing}", line) from None
        if type(row[3]) not in (int, float):  # JSON values are of exact types, so a bool fails
            raise ParseError(f"score {row[3]!r} is not a number", line)
        if type(row[1]) not in (str, int) or type(row[2]) not in (str, int):
            speaker = row[2] if type(row[1]) in (str, int) else row[1]
            raise ParseError(f"speaker identifier {speaker!r} is not a string or an integer", line)
        yield row


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
    # chunks under malloc's 128 KiB mmap threshold: freeing a larger one raises the threshold, so the
    # parse's growing arrays then fragment the heap, which holds ~1 MB more of a cold load's peak RSS
    while chunk := fh.read(1 << 16):
        digest.update(chunk)
    return digest.hexdigest()


def _read_entry(entry: Path, record: type[_Record], build):
    """`build` of the `record.ARRAYS` of cache entry `entry`, whose mtime is refreshed; None if it is missing
    or bad: an array is missing, is not 1-D or not of its dtype, or `build` raises ValueError."""
    try:
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in record.ARRAYS}
        if any(a.ndim != 1 or a.dtype != record.ARRAYS[name] for name, a in arrays.items()):
            raise ValueError("foreign cache entry")
        loaded = build(**arrays)
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


def _cached(path, kind: str, parse, record: type[_Record], build=None):
    """`parse(fh)`, a `record`, on binary file `path`, or `build` (by default `record`) of the arrays of the
    record that a parse of the same content saved.

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
            if entry is not None and (loaded := _read_entry(entry, record, build or record)) is not None:
                return loaded
        result = parse(fh)
        after = os.fstat(fh.fileno())
    if entry is not None and (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns):
        _write_entry(entry, {name: getattr(result, name) for name in record.ARRAYS})
    return result


def _is_offsets(offsets: np.ndarray, total: int) -> bool:
    """Strictly increasing offsets from 0 to `total` of at least one range: a parse gives a
    corpus a target, every name a character, every target a pair and every pair a score."""
    return offsets.size > 1 and offsets[0] == 0 and offsets[-1] == total and bool((np.diff(offsets) > 0).all())


def _corpus_from(**arrays) -> PackedCorpus:
    """The corpus of a cache entry's arrays, or ValueError unless its names decode and its offsets
    and impostor codes fit the arrays they index."""
    names, name_offsets, target_offsets, pair_impostor, pair_offsets, scores = map(arrays.get, PackedCorpus.ARRAYS)
    n_chars = len(names.tobytes().decode("utf-8", "surrogatepass"))
    n_targets, n_pairs = target_offsets.size - 1, pair_offsets.size - 1
    n_impostors = name_offsets.size - 1 - n_targets
    if not (
        _is_offsets(name_offsets, n_chars)
        and n_impostors >= 0
        and _is_offsets(target_offsets, n_pairs)
        and _is_offsets(pair_offsets, scores.size)
        and pair_impostor.size == n_pairs
        and bool(((pair_impostor >= 0) & (pair_impostor < n_impostors)).all())
    ):
        raise ValueError("inconsistent cache entry")
    return PackedCorpus(**arrays)


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
    return _cached(path, format, lambda fh: _parse_corpus(fh, format), PackedCorpus, _corpus_from)


def _parse_corpus(fh, format: str) -> PackedCorpus:
    if format == "csv":
        rows = _csv_rows(fh, ("target_id", "impostor_id", "score"), "missing column(s) {missing} in header {header}")
    else:
        rows = _jsonl_rows(fh)
    (targets, impostors), (target_codes, impostor_codes), counts, scores = _validated(
        rows, str if format == "jsonl" else str.strip
    )
    if not scores.size:  # a JSONL file without rows has only blank lines
        raise ParseError("empty file" if format == "jsonl" else "file contains no data rows", 1)
    return PackedCorpus.from_codes(targets, impostors, target_codes, impostor_codes, counts, scores)


def load_labeled_scores(path) -> LabeledScoreSet:
    """Load a ``label,score`` CSV with label in {target, nontarget}.

    The file is read row by row, and the first malformed row raises
    ParseError naming its line.  A file loaded before is read back from the
    cache (see `_cached`).
    """
    return _cached(path, "labels", _parse_labels, LabeledScoreSet)


def _parse_labels(fh) -> LabeledScoreSet:
    header_fault = "expected header with 'label' and 'score', got {header}"
    _, [codes], counts, scores = _validated(_csv_rows(fh, ("label", "score"), header_fault), str.strip, labels=True)
    target, nontarget = (scores[np.repeat(codes == code, counts)] for code in range(len(_LABELS)))
    if not target.size or not nontarget.size:
        raise ParseError("file must contain at least one target and one nontarget score")
    return LabeledScoreSet(target_scores=target, nontarget_scores=nontarget)


def _rank(names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Rank of each name in code point order, and the names in that order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    return np.argsort(np.array(order, dtype=np.int64)), [names[k] for k in order]


def _blocks(x: np.ndarray, offsets: np.ndarray):
    """``(segments, values, starts, counts)`` of consecutive blocks of whole segments of `x`.

    Segment k is ``x[offsets[k]:offsets[k+1]]``, and every segment must be
    non-empty.  A block holds the segments ``segments`` (a slice), whose
    values ``values`` are a view of `x`; ``starts`` are their offsets into
    ``values`` and ``counts`` their lengths.  A block ends at the last
    segment boundary within `_BLOCK_SCORES` values of its start, so a longer
    segment is a block of its own.  A reduction over a block's segments
    gives each segment the bits it has over all of `x`.
    """
    first, n_segments = 0, offsets.size - 1
    while first < n_segments:
        stop = int(np.searchsorted(offsets, offsets[first] + _BLOCK_SCORES, side="right")) - 1
        stop = max(stop, first + 1)  # a segment longer than a block
        bounds = offsets[first : stop + 1]
        yield slice(first, stop), x[bounds[0] : bounds[-1]], bounds[:-1] - bounds[0], np.diff(bounds)
        first = stop


def _sums(values: np.ndarray, starts: np.ndarray, what: str, name, first: int = 0) -> np.ndarray:
    """``np.add.reduceat(values, starts)``, or NumericError naming ``name(first + k)`` for the first sum k
    that left the float range; call it where numpy's overflow and invalid warnings are ignored."""
    sums = np.add.reduceat(values, starts)
    finite = np.isfinite(sums)
    if not finite.all():
        raise NumericError(f"{what} of {name(first + int(finite.argmin()))} is not finite")
    return sums


def _skewness(x: np.ndarray, offsets: np.ndarray, name) -> np.ndarray:
    """Bias-corrected (adjusted Fisher-Pearson) skewness of each segment, over `_blocks`.

    Segment k is ``x[offsets[k]:offsets[k+1]]``, and every segment must be
    non-empty.  NaN where a segment has fewer than 3 values or zero range.
    Constant segments are found by their range: their computed mean can be
    off by one ulp, which leaves a tiny second moment and a skewness of
    about +-2.449 instead of none.  A segment whose sum, sum of squared
    deviations or sum of cubed deviations is not finite raises NumericError
    naming ``name(k)``.
    """
    g1 = np.empty(offsets.size - 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for segments, block, starts, counts in _blocks(x, offsets):
            n = counts.astype(float)
            centered = block - np.repeat(_sums(block, starts, "the sum", name, segments.start) / n, counts)
            m2 = _sums(centered**2, starts, "the sum of squared deviations", name, segments.start) / n
            m3 = _sums(centered**3, starts, "the sum of cubed deviations", name, segments.start) / n
            varies = np.maximum.reduceat(block, starts) > np.minimum.reduceat(block, starts)
            g1[segments] = np.where((n >= 3) & varies, m3 / m2**1.5 * np.sqrt(n * (n - 1.0)) / (n - 2.0), np.nan)
    return g1


def sample_skewness(values, name: str = "the values") -> float | None:
    """Bias-corrected (adjusted Fisher-Pearson) sample skewness.

    Returns None when fewer than 3 values or when all values are equal.  A
    sum that leaves the float range raises NumericError naming `name`.
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    if x.size < 3:
        return None
    g1 = _skewness(x, np.array([0, x.size]), lambda _: name)[0]
    return None if math.isnan(g1) else float(g1)


@dataclass(frozen=True, eq=False)
class PackedCorpus(_Record):
    """A corpus as flat, read-only arrays for vectorised estimation and inference.

    Pairs are enumerated target-major, so each target owns the contiguous
    pair range ``target_offsets[i]:target_offsets[i+1]``; pair ``p`` owns the
    contiguous score range ``pair_offsets[p]:pair_offsets[p+1]`` and has
    impostor ``impostor_ids[pair_impostor[p]]``.  The ids are one UTF-8
    text, `names`: the target ids, then the distinct impostor ids, each held
    once however many targets it is paired with.  `name_offsets` cuts the
    text into ids, counted in characters, and `ids` decodes the ones asked
    for.  `from_codes`, which `load_corpus` goes through, orders targets,
    impostors, and the pairs within a target by id.

    The per-pair reductions run over `_blocks` of whole pairs, so their
    memory is the score array plus one block of about `_BLOCK_SCORES`
    scores, and each pair's value has the bits of one reduction over the
    whole array.  A pair whose sum, or sum of squared or cubed deviations,
    leaves the float range raises NumericError naming its target and
    impostor.
    """

    ARRAYS = {"names": np.uint8, "name_offsets": np.int64, "target_offsets": np.int64,
              "pair_impostor": np.int64, "pair_offsets": np.int64, "scores": float}

    names: np.ndarray  # UTF-8 text of the T target ids, then the I distinct impostor ids
    name_offsets: np.ndarray  # (T+I+1,) character ranges of the ids in the text
    target_offsets: np.ndarray  # (T+1,) pair ranges
    pair_impostor: np.ndarray  # (P,) index into impostor_ids of each pair
    pair_offsets: np.ndarray  # (P+1,) score ranges
    scores: np.ndarray  # flat score values

    @classmethod
    def from_codes(
        cls,
        target_names: Sequence[str],
        impostor_names: Sequence[str],
        target_codes: np.ndarray,
        impostor_codes: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
    ) -> PackedCorpus:
        """Pack runs of rows, each given as indices into the two name lists and its count of `scores`.

        Targets, impostors, and the pairs within a target are ordered by id
        in code point order; rows of one pair keep their order.  Every name
        is kept, even one without rows, so callers pass only impostor names
        that have rows, as every loader does.
        """
        target_rank, sorted_ids = _rank(target_names)
        impostor_rank, impostor_sorted = _rank(impostor_names)
        width = max(len(impostor_names), 1)
        key = target_rank[target_codes] * width + impostor_rank[impostor_codes]
        del target_rank, impostor_rank
        if np.any(key[1:] < key[:-1]):  # runs out of id order are sorted as rows, stably
            key = np.repeat(key, counts)
            order = np.argsort(key, kind="stable")
            key = key[order]  # the unsorted keys are freed before `scores[order]` is built
            scores = scores[order]
            del order
            ends = None
        else:  # runs in id order, as generated ones are, need no sort
            ends = np.cumsum(counts)  # where each run's rows end in `scores`
        last = np.ones(key.size, dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        pair_key = key[last]
        pair_offsets = np.append(0, np.flatnonzero(last) + 1 if ends is None else ends[last])
        target_offsets = np.searchsorted(pair_key // width, np.arange(len(target_names) + 1))
        pair_impostor = pair_key % width
        del key, last, ends, pair_key  # freed before the text is built, which keeps the text out of the parse's peak
        sorted_ids += impostor_sorted  # the target ids, then the impostor ids
        del impostor_sorted
        lengths = np.fromiter(map(len, sorted_ids), dtype=np.int64, count=len(sorted_ids))
        return cls(
            # a JSON id may be a lone surrogate such as "\ud800"
            names=np.frombuffer("".join(sorted_ids).encode("utf-8", "surrogatepass"), dtype=np.uint8),
            name_offsets=np.append(0, np.cumsum(lengths)),
            target_offsets=target_offsets,
            pair_impostor=pair_impostor,
            pair_offsets=pair_offsets,
            scores=scores,
        )

    def ids(self, *ks: int) -> tuple[str, ...]:
        """The ids numbered `ks` in the text, where target i is number i and impostor i is ``n_targets + i``."""
        text = self.names.tobytes().decode("utf-8", "surrogatepass")
        return tuple(text[self.name_offsets[k] : self.name_offsets[k + 1]] for k in ks)

    @property
    def target_ids(self) -> tuple[str, ...]:
        return self.ids(*range(self.n_targets))

    @property
    def impostor_ids(self) -> tuple[str, ...]:
        """The distinct impostors, each with at least one pair."""
        return self.ids(*range(self.n_targets, self.name_offsets.size - 1))

    @property
    def n_targets(self) -> int:
        return self.target_offsets.size - 1

    @property
    def n_pairs(self) -> int:
        return self.pair_impostor.size

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
    def pair_target(self) -> np.ndarray:
        """(P,) owning target of each pair."""
        return _frozen_array(np.repeat(np.arange(self.n_targets), self.pairs_per_target), np.int64)

    def _pair_name(self, p: int) -> str:
        target, impostor = self.ids(self.pair_target[p], self.n_targets + self.pair_impostor[p])
        return f"the scores of target {target!r} and impostor {impostor!r}"

    @cached_property
    def pair_sums(self) -> np.ndarray:
        """Per-pair sum of scores; NumericError names a pair whose sum leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _sums(self.scores, self.pair_offsets[:-1], "the sum", self._pair_name)

    @cached_property
    def pair_centered_ss(self) -> np.ndarray:
        """Per-pair sum of squared deviations from the pair mean, over `_blocks`.

        Two-pass computation: exact for constant pairs and free of the
        cancellation that the raw-moment expansion suffers.  NumericError
        names a pair whose sum leaves the float range.
        """
        means, ss = self.pair_means(), np.empty(self.n_pairs)
        with np.errstate(over="ignore", invalid="ignore"):
            for pairs, block, starts, counts in _blocks(self.scores, self.pair_offsets):
                centered = block - np.repeat(means[pairs], counts)
                ss[pairs] = _sums(centered**2, starts, "the sum of squared deviations", self._pair_name, pairs.start)
        return ss

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
        return _skewness(self.scores, self.pair_offsets, self._pair_name)

    def pair_exceed_fraction(self, tau: float) -> np.ndarray:
        """Per-pair fraction of scores strictly above `tau`, over `_blocks`."""
        hits = np.empty(self.n_pairs)
        for pairs, block, starts, _ in _blocks(self.scores, self.pair_offsets):
            hits[pairs] = np.add.reduceat((block > tau).astype(float), starts)
        return hits / self.pair_count

