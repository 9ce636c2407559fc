import codecs
import csv
import dataclasses
import io
import json
import math
import os
import random
import string
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wcfar import score_data
from wcfar.errors import NumericError, ParseError
from wcfar.estimators import diagnose, estimate_pfa_worst_case
from wcfar.inference import fit
from wcfar.model import Hyperparameters
from wcfar.score_data import PackedCorpus, load_corpus, load_labeled_scores, sample_skewness
from wcfar.synthetic import SyntheticSpec, model_blocks

import corpora
from oracles import (
    grouped_corpus,
    loop_pair_skewness,
    one_block_centered_ss,
    one_block_exceed_fraction,
    one_block_skewness,
)

CSV_ROWS = [
    "target_id,impostor_id,score",
    "alice,bob,0.25",
    "alice,carol,-1.5",
    "alice,bob,0.75",
    "alice,carol,-0.5",
]


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCorpus:
    def test_csv_grouping(self, tmp_path):
        corpus = load_corpus(write(tmp_path, "c.csv", CSV_ROWS))
        assert corpus.n_targets == 1
        assert corpus.target_ids == ("alice",)
        assert corpus.impostor_ids == ("bob", "carol")
        assert corpus.pair_count.tolist() == [2, 2]
        assert np.array_equal(corpus.scores, [0.25, 0.75, -1.5, -0.5])

    def test_jsonl_equivalent(self, tmp_path):
        rows = [
            json.dumps({"target": "alice", "impostor": "bob", "score": 0.25}),
            json.dumps({"target": "alice", "impostor": "carol", "score": -1.5}),
            json.dumps({"target": "alice", "impostor": "bob", "score": 0.75}),
            json.dumps({"target": "alice", "impostor": "carol", "score": -0.5}),
        ]
        csv_corpus = load_corpus(write(tmp_path, "c.csv", CSV_ROWS))
        jsonl_corpus = load_corpus(write(tmp_path, "c.jsonl", rows))
        assert csv_corpus == jsonl_corpus

    def test_load_is_idempotent(self, tmp_path):
        path = write(tmp_path, "c.csv", CSV_ROWS)
        assert load_corpus(path) == load_corpus(path)

    def test_order_stable_under_input_shuffle(self, tmp_path):
        shuffled = [CSV_ROWS[0], CSV_ROWS[2], CSV_ROWS[4], CSV_ROWS[1], CSV_ROWS[3]]
        a = load_corpus(write(tmp_path, "a.csv", CSV_ROWS))
        b = load_corpus(write(tmp_path, "b.csv", shuffled))
        # per-pair score order follows the input, so only the grouping matches
        assert b.target_ids == a.target_ids
        assert b.impostor_ids == a.impostor_ids == ("bob", "carol")

    def test_row_count_preserved(self, tmp_path):
        corpus = load_corpus(write(tmp_path, "c.csv", CSV_ROWS))
        assert corpus.n_scores == len(CSV_ROWS) - 1

    def test_first_bad_row_is_reported(self, tmp_path):
        # the earliest bad row wins, whatever its fault, and blank rows count as lines
        rows = [CSV_ROWS[0], "a,b,0.5", "", "a,b,zero", "a,b,1.5", "a,a,0.5", "a,b,inf"]
        with pytest.raises(ParseError, match="line 4: score 'zero' is not a number"):
            load_corpus(write(tmp_path, "a.csv", rows))
        rows[3] = "a,b,2.5"
        with pytest.raises(ParseError, match="line 6: .*same speaker"):
            load_corpus(write(tmp_path, "b.csv", rows))
        rows[5] = "a,c"
        with pytest.raises(ParseError, match="line 6: expected 3 fields, got 2"):
            load_corpus(write(tmp_path, "c.csv", rows))
        rows[5] = "a,c,0.5,junk"
        with pytest.raises(ParseError, match="line 6: expected 3 fields, got 4"):
            load_corpus(write(tmp_path, "e.csv", rows))
        rows[5] = " , ,"
        with pytest.raises(ParseError, match="line 6: empty speaker identifier"):
            load_corpus(write(tmp_path, "f.csv", rows))
        rows[5] = "   "
        with pytest.raises(ParseError, match="line 7: score 'inf' is not finite"):
            load_corpus(write(tmp_path, "d.csv", rows))

    def test_nan_score_reports_line(self, tmp_path):
        path = write(tmp_path, "c.csv", CSV_ROWS + ["alice,bob,NaN"])
        with pytest.raises(ParseError, match="line 6"):
            load_corpus(path)

    def test_non_numeric_score(self, tmp_path):
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], "a,b,zero"])
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_target_equals_impostor(self, tmp_path):
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], "alice,alice,0.5"])
        with pytest.raises(ParseError, match="same speaker"):
            load_corpus(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "c.csv", ["target_id,score", "a,0.5"])
        with pytest.raises(ParseError, match="missing column"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_corpus(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "c.csv", [CSV_ROWS[0]])
        with pytest.raises(ParseError, match="no data rows"):
            load_corpus(path)

    def test_malformed_jsonl(self, tmp_path):
        path = write(tmp_path, "c.jsonl", ["{not json"])
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(path)

    def test_jsonl_row_not_an_object(self, tmp_path):
        path = write(tmp_path, "c.jsonl", ["[1, 2]"])
        with pytest.raises(ParseError, match="line 1: row is not an object"):
            load_corpus(path)

    def test_jsonl_missing_key(self, tmp_path):
        path = write(tmp_path, "c.jsonl", [json.dumps({"target": "a", "score": 1.0})])
        with pytest.raises(ParseError, match="impostor"):
            load_corpus(path)

    def test_jsonl_non_numeric_score(self, tmp_path):
        row = json.dumps({"target": "a", "impostor": "b", "score": "0.5"})
        path = write(tmp_path, "c.jsonl", [row])
        with pytest.raises(ParseError, match="not a number"):
            load_corpus(path)

    def test_unknown_format(self, tmp_path):
        path = write(tmp_path, "c.csv", CSV_ROWS)
        with pytest.raises(ValueError, match="unknown format"):
            load_corpus(path, format="tsv")

    def test_unknown_suffix_needs_format(self, tmp_path):
        path = write(tmp_path, "c.dat", CSV_ROWS)
        with pytest.raises(ParseError, match="cannot infer"):
            load_corpus(path)
        assert load_corpus(path, format="csv").n_targets == 1


HEADER = b"target_id,impostor_id,score\n"


def _pair_impostors(corpus) -> tuple[str, ...]:
    """The impostor id of each pair of `corpus`, in pair order."""
    return tuple(corpus.impostor_ids[k] for k in corpus.pair_impostor.tolist())


def _jsonl(*objects) -> bytes:
    return b"".join(json.dumps(obj).encode() + b"\n" for obj in objects)


# Each odd or faulty file maps to what loading it gives: a corpus as
# (target_ids, each pair's impostor id, pair_offsets, scores), label scores as
# (target_scores, nontarget_scores), or the exact ParseError text.
ODD_FILES = [
    pytest.param("c.csv", HEADER + b'"a","b",0.5\n"a,x",b,1.5\n',
                 (("a", "a,x"), ("b", "b"), [0, 1, 2], [0.5, 1.5]), id="quotes"),
    pytest.param("c.csv", HEADER.replace(b"\n", b"\r\n") + b"a,b,0.5\r\na,c,1.5\r\n",
                 (("a",), ("b", "c"), [0, 1, 2], [0.5, 1.5]), id="crlf"),
    pytest.param("c.csv", HEADER + "é,b,0.5\nz,é,1.5\n".encode(),
                 (("z", "é"), ("é", "b"), [0, 1, 2], [1.5, 0.5]), id="utf8"),
    pytest.param("c.csv", HEADER + b"a,b,0.5\n\na,b,1.5\n",
                 (("a",), ("b",), [0, 2], [0.5, 1.5]), id="blank-line"),
    pytest.param("c.csv", HEADER + b"a,b,0.5\n \t \na,b,1.5\n",
                 (("a",), ("b",), [0, 2], [0.5, 1.5]), id="whitespace-line"),
    pytest.param("c.csv", HEADER + b"a,b,1\n , ,\n", "line 3: empty speaker identifier", id="blank-ids-row"),
    pytest.param("c.csv", HEADER + b"a,b,1\n,,,\n", "line 3: expected 3 fields, got 4", id="blank-long-row"),
    pytest.param("c.csv", HEADER + b'a,b,1\n"  "\n', "line 3: expected 3 fields, got 1", id="quoted-blank-row"),
    pytest.param("c.csv", HEADER + b'a,b,1\n""\n', "line 3: expected 3 fields, got 1", id="quoted-empty-row"),
    pytest.param("c.csv", HEADER + b'a,b,1\n"\n  \n', "line 3: expected 3 fields, got 1", id="open-quote-rows"),
    pytest.param("c.csv", HEADER + b"a,b,0.5\na,c,1.5",
                 (("a",), ("b", "c"), [0, 1, 2], [0.5, 1.5]), id="no-final-newline"),
    pytest.param("c.csv", HEADER + b" a ,b ,0.5\na,b,1.5\n",
                 (("a",), ("b",), [0, 2], [0.5, 1.5]), id="padded-ids"),
    pytest.param("c.csv", b"score,impostor_id,target_id\n0.5,b,a\n",
                 (("a",), ("b",), [0, 1], [0.5]), id="permuted-header"),
    pytest.param("c.csv", b"target_id, impostor_id , score\na,b,0.5\n",
                 (("a",), ("b",), [0, 1], [0.5]), id="spaced-header"),
    pytest.param("c.csv", HEADER + b"a#1,#b,0.5\n", (("a#1",), ("#b",), [0, 1], [0.5]), id="hash-in-id"),
    pytest.param("c.csv", HEADER + b"a\x00,b,0.5\na,b,1.5\n",
                 (("a", "a\x00"), ("b", "b"), [0, 1, 2], [1.5, 0.5]), id="nul-in-id"),
    pytest.param("c.csv", HEADER + b"a,b,1_0\n", (("a",), ("b",), [0, 1], [10.0]), id="score-underscore"),
    pytest.param("c.csv", HEADER + b"a,b, 1.5 \n", (("a",), ("b",), [0, 1], [1.5]), id="score-padded"),
    pytest.param("c.csv", HEADER + "a,b,١٢\n".encode(),
                 (("a",), ("b",), [0, 1], [12.0]), id="score-arabic-digits"),
    pytest.param("c.csv", HEADER + b"a,b,nan\n", "line 2: score 'nan' is not finite", id="score-nan"),
    pytest.param("c.csv", HEADER + b"a,b,1e999\n",
                 "line 2: score '1e999' is not finite", id="score-overflow"),
    pytest.param("c.csv", HEADER + b"a,b,zz\n", "line 2: score 'zz' is not a number", id="score-text"),
    pytest.param("c.csv", HEADER + b"a,b,1.5\x00\n",
                 "line 2: score '1.5\\x00' is not a number", id="score-nul"),
    pytest.param("c.csv", HEADER + b"a,a,1\n",
                 "line 2: target and impostor are the same speaker 'a'", id="same-speaker"),
    pytest.param("c.csv", HEADER + b",b,1\n", "line 2: empty speaker identifier", id="empty-id"),
    pytest.param("c.csv", HEADER + b"a,b\n", "line 2: expected 3 fields, got 2", id="short-row"),
    pytest.param("c.csv", HEADER + b"a,b,1,2\n", "line 2: expected 3 fields, got 4", id="long-row"),
    pytest.param("c.csv", HEADER, "line 1: file contains no data rows", id="header-only"),
    pytest.param("c.csv", b"", "line 1: empty file", id="empty-file"),
    pytest.param("c.csv", b"target_id,score\na,1\n",
                 "line 1: missing column(s) ['impostor_id'] in header ['target_id', 'score']", id="missing-column"),
    pytest.param("c.csv", HEADER + b"a,b,zz\na,a,1\n",
                 "line 2: score 'zz' is not a number", id="order-text-before-same"),
    pytest.param("c.csv", HEADER + b'a,a,1\n"b",c,2\n',
                 "line 2: target and impostor are the same speaker 'a'", id="order-plain-before-quoted"),
    pytest.param("c.csv", HEADER + b"a,a,zz\n",
                 "line 2: target and impostor are the same speaker 'a'", id="order-in-row-same-before-text"),
    pytest.param("c.csv", HEADER + b",,1\n",
                 "line 2: empty speaker identifier", id="order-in-row-empty-before-same"),
    pytest.param("c.jsonl",
                 _jsonl({"target": "a", "impostor": "b", "score": "x"}, {"target": "a", "impostor": "a", "score": 1}),
                 "line 1: score 'x' is not a number", id="order-jsonl-type-before-same"),
    pytest.param("c.jsonl", _jsonl({"target": "a", "impostor": "a", "score": 1}) + b"{not json\n",
                 "line 1: target and impostor are the same speaker 'a'", id="order-jsonl-same-before-json"),
    pytest.param("c.jsonl", b'{"target": "a", "impostor": "b", "score": NaN}\n',
                 "line 1: score nan is not finite", id="jsonl-nan"),
    pytest.param("c.jsonl", _jsonl({"target": "a", "impostor": "b", "score": 10**400}),
                 f"line 1: score {10**400} is not a number", id="jsonl-huge-int"),
    pytest.param("c.jsonl", _jsonl({"target": "a", "impostor": "b", "score": True}),
                 "line 1: score True is not a number", id="jsonl-bool"),
    pytest.param("c.jsonl", _jsonl({"target": 1, "impostor": 2, "score": 0.5}),
                 (("1",), ("2",), [0, 1], [0.5]), id="jsonl-integer-ids"),
    pytest.param("l.csv", b"label,score\nimpostor,0.5\n",
                 "line 2: label 'impostor' is not 'target' or 'nontarget'", id="labels-bad-label"),
    pytest.param("l.csv", b"label,score\ntarget,zz\n",
                 "line 2: score 'zz' is not a number", id="labels-bad-score"),
    pytest.param("l.csv", b"label,score\nimpostor,zz\n",
                 "line 2: label 'impostor' is not 'target' or 'nontarget'", id="labels-order-in-row"),
    pytest.param("l.csv", b"label,score\ntarget,nan\n", "line 2: score 'nan' is not finite", id="labels-nan"),
    pytest.param("l.csv", b'label,score\ntarget,1\nnontarget,0\n"  "\n', "line 4: expected 2 fields, got 1",
                 id="labels-quoted-blank-row"),
    pytest.param("l.csv", b'label,score\n"target",1.5\n"nontarget",-0.5\n',
                 ([1.5], [-0.5]), id="labels-quotes"),
    pytest.param("l.csv", b"lab,score\ntarget,1.5\n",
                 "line 1: expected header with 'label' and 'score', got ['lab', 'score']", id="labels-wrong-header"),
    pytest.param("l.csv", b"label,score\ntarget,1.5\n",
                 "file must contain at least one target and one nontarget score", id="labels-one-class"),
    # bug fixes: a field beyond csv's size limit, and a JSON id of another type, loaded as "None" before
    pytest.param("c.csv", HEADER + b"a" * 140_000 + b" ,b,1\n",
                 "line 2: field larger than field limit (131072)", id="field-limit"),
    pytest.param("c.csv", HEADER + b"a,a,1\n" + b"a" * 140_000 + b" ,b,1\n",
                 "line 2: target and impostor are the same speaker 'a'", id="order-same-before-field-limit"),
    pytest.param("l.csv", b"label,score\n" + b"t" * 140_000 + b" ,1\n",
                 "line 2: field larger than field limit (131072)", id="labels-field-limit"),
    # a field beyond the limit is one error whether or not the id is padded
    pytest.param("c.csv", HEADER + b"a,b,0.5\n" + b"i" * 140_000 + b",b,1\n",
                 "line 3: field larger than field limit (131072)", id="field-limit-unpadded"),
    pytest.param("l.csv", b"label,score\n" + b"t" * 140_000 + b",1\n",
                 "line 2: field larger than field limit (131072)", id="labels-field-limit-unpadded"),
    pytest.param("c.jsonl", _jsonl({"target": None, "impostor": "b", "score": 0.5}),
                 "line 1: speaker identifier None is not a string or an integer", id="jsonl-null-id"),
    # bug fixes: a byte that is not UTF-8 hid the faults before it and named no line
    pytest.param("c.csv", HEADER + b'"a",a,1\nb,c,2\nd,\xff,3\n',
                 "line 2: target and impostor are the same speaker 'a'", id="order-same-before-utf8"),
    pytest.param("c.csv", HEADER + b"a,b,1\nd,\xff,3\n", "line 3: not valid UTF-8", id="utf8-invalid"),
    pytest.param("c.csv", b"target_id,impostor_id,\xffscore\na,b,1\n", "line 1: not valid UTF-8",
                 id="utf8-invalid-header"),
    pytest.param("c.jsonl", _jsonl({"target": "a", "impostor": "b", "score": 1}) + b'{"target": "\xff"}\n',
                 "line 2: not valid UTF-8", id="jsonl-utf8-invalid"),
    pytest.param("l.csv", b"label,score\ntarget,1\nnontarget,\xff\n", "line 3: not valid UTF-8",
                 id="labels-utf8-invalid"),
    # bug fix: a row after a quoted newline was named by its record, not by the line it starts on
    pytest.param("c.csv", HEADER + b'"a\nx",b,1\na,a,1\n',
                 "line 4: target and impostor are the same speaker 'a'", id="line-after-quoted-newline"),
    pytest.param("c.csv", HEADER + b'"a\nx",b,1\na,b,\xff\n', "line 4: not valid UTF-8",
                 id="utf8-invalid-after-quoted-newline"),
]


@pytest.mark.parametrize("name,content,want", ODD_FILES)
def test_odd_file(tmp_path, name, content, want):
    path = tmp_path / name
    path.write_bytes(content)
    load = load_labeled_scores if name.startswith("l") else load_corpus
    if isinstance(want, str):
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == want
    elif load is load_corpus:
        corpus = load(path)
        assert (corpus.target_ids, _pair_impostors(corpus)) == want[:2]
        assert corpus.impostor_ids == tuple(sorted(set(want[1])))
        assert corpus.pair_offsets.tolist() == want[2]
        assert corpus.scores.tolist() == want[3]
    else:
        labeled = load(path)
        assert (labeled.target_scores.tolist(), labeled.nontarget_scores.tolist()) == want


@pytest.mark.parametrize("speaker", [None, True, False, 1.5, "", {"x": 1}, [1]])
def test_jsonl_ids_are_strings_or_integers(tmp_path, speaker):
    path = tmp_path / "c.jsonl"
    rows = [{"target": speaker, "impostor": "b", "score": 0.5}, {"target": "a", "impostor": speaker, "score": 0.5}]
    for row in rows:
        path.write_bytes(_jsonl(row))
        with pytest.raises(ParseError) as info:
            load_corpus(path)
        if speaker == "":
            assert str(info.value) == "line 1: empty speaker identifier"
        else:
            assert str(info.value) == f"line 1: speaker identifier {speaker!r} is not a string or an integer"
    path.write_bytes(_jsonl({"target": speaker, "impostor": "b", "score": "x"}))
    with pytest.raises(ParseError, match="^line 1: score 'x' is not a number$"):
        load_corpus(path)
    # an integer id is the speaker named by its digits
    path.write_bytes(_jsonl({"target": 7, "impostor": "b", "score": 0.5}, {"target": "7", "impostor": "b", "score": 1}))
    assert load_corpus(path) == corpora.groups({"7": {"b": [0.5, 1.0]}})


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("n_rows", [3, 3_000, 30_000])
def test_invalid_utf8_names_its_line_after_the_rows_before_it(tmp_path, fmt, n_rows):
    """The bad byte lies beyond the decoder's read-ahead, or within it."""
    path = tmp_path / f"c.{fmt}"
    rows = [("a", f"i{k}", k) for k in range(n_rows)]
    if fmt == "csv":
        lines = [b"target_id,impostor_id,score\n", *(f"{t},{i},{x}\n".encode() for t, i, x in rows)]
    else:
        lines = [_jsonl({"target": t, "impostor": i, "score": x}) for t, i, x in rows]
    path.write_bytes(b"".join(lines) + b"z,\xe9,1\n")
    with pytest.raises(ParseError, match=f"^line {len(lines) + 1}: not valid UTF-8$"):
        load_corpus(path)
    same = b"a,a,1\n" if fmt == "csv" else _jsonl({"target": "a", "impostor": "a", "score": 1})
    lines.insert(len(lines) - 1, same)
    path.write_bytes(b"".join(lines) + b"z,\xe9,1\n")
    with pytest.raises(ParseError, match=f"^line {len(lines) - 1}: target and impostor are the same speaker 'a'$"):
        load_corpus(path)


def _load_from_pipe(content: bytes, fmt: str):
    """`load_corpus` of `content` read from the read end of an `os.pipe`, which cannot seek."""
    read_fd, write_fd = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write_fd, content), os.close(write_fd)), daemon=True)
    writer.start()
    try:
        return load_corpus(f"/dev/fd/{read_fd}", format=fmt)
    finally:
        writer.join(timeout=10)
        os.close(read_fd)


def test_quoted_csv_from_a_pipe_loads(tmp_path):
    content = HEADER + b'"a",b,0.5\na,"c",1.5\n'
    (tmp_path / "c.csv").write_bytes(content)
    want = corpora.groups({"a": {"b": [0.5], "c": [1.5]}})
    assert load_corpus(tmp_path / "c.csv") == want
    assert _load_from_pipe(content, "csv") == want


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_invalid_utf8_from_a_pipe_names_its_line(tmp_path, fmt):
    """As in a regular file, the bad byte's line is named, after the rows before it are checked."""
    if fmt == "csv":
        content, line, same = HEADER + b'"a",b,0.5\na,\xff,1.5\n', 3, (b'"a",b', b'"a",a')
    else:
        content, line, same = _jsonl({"target": "a", "impostor": "b", "score": 0.5}) + b'{"target": "a\xff"}\n', 2, (
            b'"impostor": "b"', b'"impostor": "a"')
    path = tmp_path / f"c.{fmt}"
    path.write_bytes(content)
    for load in (lambda: load_corpus(path), lambda: _load_from_pipe(content, fmt)):
        with pytest.raises(ParseError, match=f"^line {line}: not valid UTF-8$"):
            load()
    with pytest.raises(ParseError, match=f"^line {line - 1}: target and impostor are the same speaker 'a'$"):
        _load_from_pipe(content.replace(*same), fmt)


def test_jsonl_integer_beyond_the_digit_limit_names_its_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(_jsonl({"target": "a", "impostor": "b", "score": 1}) + b'{"target": "a", "impostor": "b", '
                     b'"score": ' + b"9" * 5000 + b"}\n")
    with pytest.raises(ParseError, match="^line 2: "):
        load_corpus(path)


@pytest.mark.parametrize("name,content", [
    pytest.param("c.csv", HEADER + b"a,b,0.5\na,c,1.5\n", id="csv"),
    pytest.param("c.jsonl", _jsonl({"target": "a", "impostor": "b", "score": 0.5},
                                   {"target": "a", "impostor": "c", "score": 1}), id="jsonl"),
    pytest.param("l.csv", b"label,score\ntarget,1\nnontarget,0.5\n", id="labels"),
])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, name, content):
    """Spreadsheets save "CSV UTF-8" with a byte-order mark first; a later one stays part of its field."""
    load = load_labeled_scores if name.startswith("l") else load_corpus
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(content)
    marked.write_bytes(codecs.BOM_UTF8 + content)
    assert load(marked) == load(plain)
    marked.write_bytes(HEADER + codecs.BOM_UTF8 + b"a,b,0.5\n")
    assert load_corpus(marked, format="csv").target_ids == ("\ufeffa",)


# per file kind: header, good row k, a row that breaks a row rule and its
# message, and a row the reader refuses and the start of its message
_EDGE_FILES = {
    "csv": ("target_id,impostor_id,score", "t{k},i{k},0.5", "a,a,0.5",
            "target and impostor are the same speaker 'a'", "a,b", "expected 3 fields, got 2"),
    "jsonl": (None, '{{"target": "t{k}", "impostor": "i{k}", "score": 0.5}}',
              '{"target": "a", "impostor": "a", "score": 0.5}', "target and impostor are the same speaker 'a'",
              '{"target": "a",', "invalid JSON: "),
    "labels": ("label,score", "target,{k}", "a,0.5", "label 'a' is not 'target' or 'nontarget'",
               "target,0.5,1", "expected 2 fields, got 3"),
}


@pytest.mark.parametrize("kind", list(_EDGE_FILES))
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("rule_fault_before", [False, True])
def test_a_reader_fault_at_a_batch_edge_is_raised_after_the_rows_before_it(tmp_path, kind, offset, rule_fault_before):
    """The reader's fault sits on data row `_BLOCK_ROWS` + `offset`, counted from 1: the last row of a full
    batch is `_BLOCK_ROWS`.  A row rule broken in the row before it is reported instead."""
    header, good, rule_row, rule_message, reader_row, reader_message = _EDGE_FILES[kind]
    at = score_data._BLOCK_ROWS + offset
    rows = [good.format(k=k) for k in range(1, at)] + [reader_row, good.format(k=at + 1)]
    if rule_fault_before:
        rows[at - 2] = rule_row
    path = tmp_path / ("c.jsonl" if kind == "jsonl" else "c.csv")
    path.write_text("\n".join(([header] if header else []) + rows) + "\n")
    load = load_labeled_scores if kind == "labels" else load_corpus
    with pytest.raises(ParseError) as info:
        load(path)
    line = at - 1 if rule_fault_before else at  # data row k is on line k, after a header on line k + 1
    want = f"line {line + bool(header)}: {rule_message if rule_fault_before else reader_message}"
    assert str(info.value).startswith(want)


def _assert_matches_oracle(loaded, rows):
    want, grouped = grouped_corpus(rows)
    assert (loaded.target_ids, loaded.impostor_ids) == want[:2]
    arrays = (loaded.target_offsets, loaded.pair_impostor, loaded.pair_offsets, loaded.scores)
    for got, expected in zip(arrays, want[2:]):
        assert np.array_equal(got, expected)
    assert corpora.groups(grouped) == loaded


class TestCsvRows:
    """The CSV row reader `_csv_rows`: `csv.reader` rows of unquoted CSVs, as row tuples that `_validated` batches."""

    def test_hash_in_id(self, tmp_path):
        rows = [("a#1", "b", 0.5), ("a#1", "#c", 1.5), ("x", "b", 2.0)]
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], *(f"{t},{i},{v!r}" for t, i, v in rows)])
        _assert_matches_oracle(load_corpus(path), rows)

    def test_nul_keeps_ids_distinct(self, tmp_path):
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], "a\x00,b,0.5", "a,b,1.5"])
        corpus = load_corpus(path)
        assert corpus.target_ids == ("a", "a\x00")
        assert corpus.scores.tolist() == [1.5, 0.5]

    @pytest.mark.parametrize("header", [CSV_ROWS[0], "score,target_id,impostor_id"])
    def test_comma_total_does_not_hide_ragged_rows(self, tmp_path, header):
        # two rows hold 4 commas between them, as two rows of 3 fields would
        with pytest.raises(ParseError, match="line 2: expected 3 fields, got 2"):
            load_corpus(write(tmp_path, "c.csv", [header, "1,2", "3,4,5,6"]))

    def test_padded_and_empty_ids_reach_the_row_reader(self, tmp_path):
        corpus = load_corpus(write(tmp_path, "a.csv", [CSV_ROWS[0], "a ,b,0.5", "a,b,1.5"]))
        assert corpus.target_ids == ("a",)
        assert corpus.scores.tolist() == [0.5, 1.5]
        with pytest.raises(ParseError, match="line 3: empty speaker identifier"):
            load_corpus(write(tmp_path, "b.csv", [CSV_ROWS[0], "a,b,0.5", ",c,1.5"]))

    def test_late_fault_reports_its_line(self, tmp_path):
        lines = [CSV_ROWS[0], *(f"t{k % 7},i{k % 11},{k / 8!r}" for k in range(1, 100_011))]
        lines[100_000] = "t0,i0,nan"
        with pytest.raises(ParseError, match="line 100001: score 'nan' is not finite"):
            load_corpus(write(tmp_path, "c.csv", lines))

    def test_long_id_keeps_peak_memory_small(self, tmp_path):
        # a reader that padded all 2000 rows to the long id would take ~100 MB
        rows = [(f"t{k % 5}", f"i{k}", k / 4) for k in range(2000)]
        rows[1000] = ("t" * 50_000, "i1000", 250.0)
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], *(f"{t},{i},{v!r}" for t, i, v in rows)])
        loaded, peak = corpora.traced_peak(load_corpus, path)
        assert peak < 8 * 2**20
        _assert_matches_oracle(loaded, rows)

    def test_memory_stays_within_three_file_sizes(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(CSV_ROWS[0] + "\n" + "".join(f"{t},{i},{v!r}\n" for t, i, v in _large_corpus_rows()))
        assert _load_peak(path) <= 3 * path.stat().st_size

    @pytest.mark.parametrize(
        "row,message",
        [
            ("a,b,zz", "score 'zz' is not a number"),
            ("a,b,nan", "score 'nan' is not finite"),
            ("a,a,1.5", "target and impostor are the same speaker 'a'"),
        ],
    )
    def test_value_faults_are_found_without_the_row_reader(self, tmp_path, row, message):
        with pytest.raises(ParseError) as info:
            load_corpus(write(tmp_path, "c.csv", [CSV_ROWS[0], "a,b,0.5", row, "a,a,2.5"]))
        assert str(info.value) == f"line 3: {message}"
        with pytest.raises(ParseError) as info:
            load_labeled_scores(write(tmp_path, "l.csv", ["label,score", "target,0.5", "impostor,1.5"]))
        assert str(info.value) == "line 3: label 'impostor' is not 'target' or 'nontarget'"


def _large_corpus_rows() -> list[tuple[str, str, float]]:
    """128 targets x 250 impostors x 4 scores, as in `corpus_wide`."""
    scores = np.random.default_rng(9).normal(size=(128, 250, 4)).tolist()
    return [
        (f"t{t:05d}", f"i{t:05d}_{j:04d}", v)
        for t, pairs in enumerate(scores)
        for j, values in enumerate(pairs)
        for v in values
    ]


def _load_peak(path, load=load_corpus) -> int:
    """Peak traced memory of `load(path)`, which must give the corpus of `_large_corpus_rows`."""
    corpus, peak = corpora.traced_peak(load, path)
    assert corpus.n_scores == 128 * 250 * 4
    return peak


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_row_readers_stay_within_three_file_sizes(tmp_path, fmt):
    path = tmp_path / f"c.{fmt}"
    if fmt == "csv":  # quoted, unlike the file of `test_memory_stays_within_three_file_sizes`
        path.write_text(_csv_line(["target_id", "impostor_id", "score"]) + "".join(
            f'"{t}","{i}",{v!r}\n' for t, i, v in _large_corpus_rows()
        ))
    else:
        path.write_text("".join(
            json.dumps({"target": t, "impostor": i, "score": v}) + "\n" for t, i, v in _large_corpus_rows()
        ))
    assert _load_peak(path) <= 3 * path.stat().st_size
    content = path.read_bytes()  # the pipe's writer holds the bytes before the load starts
    assert _load_peak(path, lambda _: _load_from_pipe(content, fmt)) <= 3 * len(content)


def _runs_of(path, fmt: str):
    """The run codes and run counts that `_validated` keeps of corpus file `path`."""
    with open(path, "rb") as fh:
        if fmt == "csv":
            rows = score_data._csv_rows(fh, ("target_id", "impostor_id", "score"), "{missing}")
        else:
            rows = score_data._jsonl_rows(fh)
        _, codes, counts, _ = score_data._validated(rows, str.strip if fmt == "csv" else str)
    return [code.tolist() for code in codes], counts.tolist()


def _interleaved(rows, seed: int) -> list:
    """`rows` in a random order that keeps each pair's rows in their order."""
    by_pair = {}
    for t, i, score in rows:
        by_pair.setdefault((t, i), []).append(score)
    return [(t, i, by_pair[t, i].pop(0)) for t, i, _ in random.Random(seed).sample(rows, len(rows))]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
class TestRuns:
    """Consecutive rows with the same ids are kept as one run; `grouped_corpus` is the oracle."""

    def test_a_pair_straddling_a_batch_edge_is_one_run(self, tmp_path, fmt):
        edge = score_data._BLOCK_ROWS
        # the second pair straddles the first batch edge; the third fills a whole batch and straddles two edges
        lengths = [edge - 3, 7, 2 * edge, 5]
        pairs = [("a", "b"), ("a", "c"), ("d", "b"), ("d", "c")]
        rows = [(t, i, k / 8) for (t, i), n in zip(pairs, lengths) for k in range(n)]
        path = tmp_path / f"c.{fmt}"
        path.write_text(_corpus_text(rows, fmt, [], random.Random(0)))
        _assert_matches_oracle(load_corpus(path), rows)
        assert _runs_of(path, fmt) == ([[0, 0, 1, 1], [0, 1, 0, 1]], lengths)

    def test_a_pair_in_two_runs_merges_in_file_order(self, tmp_path, fmt):
        rows = [("a", "b", 1.0), ("a", "b", 2.0), ("a", "c", 3.0), ("b", "a", 4.0), ("a", "b", 5.0), ("a", "c", 6.0)]
        path = tmp_path / f"c.{fmt}"
        path.write_text(_corpus_text(rows, fmt, [], random.Random(0)))
        corpus = load_corpus(path)
        _assert_matches_oracle(corpus, rows)
        assert corpus.scores.tolist() == [1.0, 2.0, 5.0, 3.0, 6.0, 4.0]
        assert _runs_of(path, fmt)[1] == [2, 1, 1, 1, 1]

    def test_a_row_shuffled_corpus_equals_the_grouped_one(self, tmp_path, fmt):
        scores = np.random.default_rng(11).normal(size=(5, 6, 90)).tolist()  # 2700 rows: two batches
        rows = [(f"t{t}", f"i{i}", v) for t in range(5) for i in range(6) for v in scores[t][i]]
        shuffled = _interleaved(rows, seed=12)
        grouped_path, shuffled_path = tmp_path / f"g.{fmt}", tmp_path / f"s.{fmt}"
        grouped_path.write_text(_corpus_text(rows, fmt, [], random.Random(0)))
        shuffled_path.write_text(_corpus_text(shuffled, fmt, [], random.Random(0)))
        loaded = load_corpus(shuffled_path)
        _assert_matches_oracle(loaded, shuffled)
        assert loaded == load_corpus(grouped_path)


def test_labels_alternating_row_by_row(tmp_path):
    rows = [("target" if k % 2 else "nontarget", k / 4) for k in range(2 * score_data._BLOCK_ROWS + 3)]
    labeled = load_labeled_scores(write(tmp_path, "l.csv", ["label,score", *(f"{label},{v!r}" for label, v in rows)]))
    assert labeled.target_scores.tolist() == [v for label, v in rows if label == "target"]
    assert labeled.nontarget_scores.tolist() == [v for label, v in rows if label == "nontarget"]


# a run's ids that break an id rule, and a score cell that breaks a score rule as CSV text and as JSON value
_BAD_IDS = [("", "b"), ("a", ""), ("a", "a")]
_BAD_CELLS = [("zz", "zz"), ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]


@st.composite
def _faulty_runs(draw, where: str):
    """Runs of 1-20 rows as ``[target, impostor, (csv cell, json cell)]`` rows, one of them with bad ids
    unless `where` is "no bad id", and one row with a bad score: at a random row ("no bad id"), none
    ("no bad score"), or "before", "on" or "after" the head of the run with bad ids."""
    pairs = draw(st.lists(st.sampled_from([(t, i) for t in "abc" for i in "abc" if t != i]), min_size=2, max_size=8))
    lengths = draw(st.lists(st.integers(1, 20), min_size=len(pairs), max_size=len(pairs)))
    rows = [[t, i, (repr(k / 8), k / 8)] for (t, i), n in zip(pairs, lengths) for k in range(n)]
    if where == "no bad id":
        at = draw(st.integers(0, len(rows) - 1))
    else:
        run = draw(st.integers(1 if where == "before" else 0, len(pairs) - 1))
        head = sum(lengths[:run])
        bad_ids = draw(st.sampled_from(_BAD_IDS))
        for row in rows[head : head + lengths[run]]:
            row[:2] = bad_ids
        if where != "no bad score":
            step = {"before": -1, "on": 0, "after": 1}[where] * draw(st.integers(1, 20))
            at = min(max(head + step, 0), len(rows) - 1)
    if where != "no bad score":
        rows[at][2] = draw(st.sampled_from(_BAD_CELLS))
    return rows


def _first_fault(rows, fmt: str) -> str:
    """The fault of the first row that breaks a rule, the rules taken in their documented order, row by row."""
    for line, (target, impostor, cells) in enumerate(rows, start=2 if fmt == "csv" else 1):
        cell = cells[0] if fmt == "csv" else cells[1]
        if fmt == "jsonl" and isinstance(cell, str):  # the JSONL reader refuses the row before any rule runs
            return f"line {line}: score {cell!r} is not a number"
        if not target or not impostor:
            return f"line {line}: empty speaker identifier"
        if target == impostor:
            return f"line {line}: target and impostor are the same speaker {target!r}"
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            return f"line {line}: score {cell!r} is not a number"
        if not finite:
            return f"line {line}: score {cell!r} is not finite"
    raise AssertionError("no row breaks a rule")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("where", ["before", "on", "after", "no bad id", "no bad score"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), block_rows=st.integers(1, 8))
def test_the_first_bad_row_wins_across_runs_and_batch_edges(tmp_path, monkeypatch, fmt, where, data, block_rows):
    """Id rules are checked once per run and score rules once per row; batches of 1-8 rows cut the runs."""
    rows = data.draw(_faulty_runs(where))
    path = tmp_path / f"c.{fmt}"
    if fmt == "csv":
        path.write_text("target_id,impostor_id,score\n" + "".join(f"{t},{i},{cells[0]}\n" for t, i, cells in rows))
    else:
        objects = ({"target": t, "impostor": i, "score": cells[1]} for t, i, cells in rows)
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objects))
    with monkeypatch.context() as patched, pytest.raises(ParseError) as info:
        patched.setattr(score_data, "_BLOCK_ROWS", block_rows)
        load_corpus(path)
    assert str(info.value) == _first_fault(rows, fmt)


def _parse_peak_ratio(path) -> float:
    """Peak traced memory of `load_corpus(path)`, over the bytes of its scores."""
    corpus, peak = corpora.traced_peak(load_corpus, path)
    return peak / corpus.scores.nbytes


class TestParseMemory:
    """Cold parse peaks of a 10 x 10 x 144 corpus (14,400 rows).  Batches of 256 rows keep a batch's
    Python objects below the corpus's arrays, which then set the peak."""

    @pytest.fixture
    def rows(self, monkeypatch):
        monkeypatch.setattr(score_data, "_BLOCK_ROWS", 256)
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        monkeypatch.setenv("HOME", "")
        scores = np.random.default_rng(7).normal(size=(10, 10, 144)).tolist()
        return [(f"t{t:03d}", f"i{i:03d}", v) for t in range(10) for i in range(10) for v in scores[t][i]]

    def test_a_grouped_corpus_keeps_no_per_row_codes(self, tmp_path, rows):
        # two per-row codes and a per-row sort key read 6.2x the score bytes; one record per run reads 2.4x
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], *(f"{t},{i},{v!r}" for t, i, v in rows)])
        assert _parse_peak_ratio(path) <= 4

    def test_a_shuffled_corpus_costs_no_more_than_per_row_codes(self, tmp_path, rows):
        # per-row codes read 7.2x; sorting run keys expanded to rows reads 6.4x
        random.Random(3).shuffle(rows)
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], *(f"{t},{i},{v!r}" for t, i, v in rows)])
        assert _parse_peak_ratio(path) <= 7.2


class TestLabeledScores:
    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path, "l.csv", ["label,score", "target,1.5", "nontarget,-0.5", "target,0.5"]
        )
        labeled = load_labeled_scores(path)
        assert np.array_equal(labeled.target_scores, [1.5, 0.5])
        assert np.array_equal(labeled.nontarget_scores, [-0.5])

    def test_bad_label(self, tmp_path):
        path = write(tmp_path, "l.csv", ["label,score", "impostor,0.5"])
        with pytest.raises(ParseError, match="line 2"):
            load_labeled_scores(path)

    def test_first_bad_row_is_reported(self, tmp_path):
        rows = ["label,score", "target,1.0", "nontarget,x", "target,2.0", "impostor,0.5"]
        with pytest.raises(ParseError, match="line 3: score 'x' is not a number"):
            load_labeled_scores(write(tmp_path, "a.csv", rows))
        rows[2] = "nontarget,0.0"
        with pytest.raises(ParseError, match="line 5: label 'impostor'"):
            load_labeled_scores(write(tmp_path, "b.csv", rows))
        rows[4] = "target"
        with pytest.raises(ParseError, match="line 5: expected 2 fields, got 1"):
            load_labeled_scores(write(tmp_path, "c.csv", rows))
        rows[4] = "target,1,zz"
        with pytest.raises(ParseError, match="line 5: expected 2 fields, got 3"):
            load_labeled_scores(write(tmp_path, "e.csv", rows))
        rows[4] = ""
        labeled = load_labeled_scores(write(tmp_path, "d.csv", rows))
        assert labeled.target_scores.tolist() == [1.0, 2.0]
        assert labeled.nontarget_scores.tolist() == [0.0]

    def test_plain_file_matches_row_reader(self, tmp_path):
        g = np.random.default_rng(4)
        labels = g.choice(["target", "nontarget"], 5000).tolist()
        scores = g.normal(size=5000).tolist()
        lines = ["score,label", *(f"{v!r},{label}" for v, label in zip(scores, labels))]
        got = load_labeled_scores(write(tmp_path, "l.csv", lines))
        for label, loaded in (("target", got.target_scores), ("nontarget", got.nontarget_scores)):
            assert loaded.tolist() == [v for v, k in zip(scores, labels) if k == label]

    def test_requires_both_classes(self, tmp_path):
        path = write(tmp_path, "l.csv", ["label,score", "target,0.5"])
        with pytest.raises(ParseError, match="at least one"):
            load_labeled_scores(path)


class TestSkewness:
    def test_constant_scores_excluded(self):
        assert sample_skewness([0.0, 0.0, 0.0]) is None
        # the computed mean of these is one ulp off, leaving m2 > 0
        assert sample_skewness([0.1, 0.1, 0.1]) is None
        assert sample_skewness([0.7] * 3) is None

    def test_too_few_scores_excluded(self):
        assert sample_skewness([1.0, 2.0]) is None

    def test_matches_adjusted_estimator(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        n = len(x)
        m2 = np.mean((x - x.mean()) ** 2)
        m3 = np.mean((x - x.mean()) ** 3)
        expected = (m3 / m2**1.5) * np.sqrt(n * (n - 1)) / (n - 2)
        assert sample_skewness(x) == pytest.approx(expected, rel=1e-12)

    def test_pair_skewness_matches_loop(self):
        g = np.random.default_rng(3)
        groups = {
            f"t{t}": {
                f"i{j}": np.round(g.gamma(2.0, size=g.integers(1, 7)), int(g.integers(1, 3)))
                for j in range(30)
            }
            for t in range(4)
        }
        groups["t0"].update({"c1": [0.1] * 3, "c2": [0.7] * 5, "c3": [2.0] * 2})
        corpus = corpora.groups(groups)
        got = corpus.pair_skewness()
        want = loop_pair_skewness(corpus.scores, corpus.pair_offsets)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)


class TestCorpusStats:
    """The per-pair moments and skewness summaries that `diagnose` reports."""

    def corpus(self):
        return corpora.groups({"t1": {"i1": [0.0, 0.0, 0.0], "i2": [1.0, 2.0, 3.0]}})

    def test_trivial_moments(self):
        corpus = self.corpus()
        assert corpus.impostor_ids == ("i1", "i2")
        assert corpus.pair_variances()[0] == 0.0
        assert corpus.pair_means()[1] == pytest.approx(2.0)
        assert corpus.pair_variances()[1] == pytest.approx(1.0)
        skews = corpus.pair_skewness()
        assert np.isnan(skews[0])  # only the zero-spread pair is excluded
        assert skews[1] == pytest.approx(0.0, abs=1e-12)

    def test_counts(self):
        corpus = self.corpus()
        assert corpus.n_targets == 1
        assert corpus.n_scores == 6
        assert np.array_equal(corpus.pairs_per_target, [2])
        assert np.array_equal(corpus.pair_count, [3, 3])

    def test_moments_match_brute_force(self):
        spec = SyntheticSpec(
            theta=Hyperparameters(0.2, 0.8, 4.0, 3.0, 3.0, 2.0),
            t_targets=6,
            n_impostors_per_target=4,
            l_scores_per_pair=7,
            seed=5,
        )
        corpus = corpora.pack(model_blocks(spec))
        means, variances = corpus.pair_means(), corpus.pair_variances()
        assert means.size == variances.size == 6 * 4
        for p in range(corpus.n_pairs):
            scores = corpus.scores[corpus.pair_offsets[p] : corpus.pair_offsets[p + 1]]
            assert means[p] == pytest.approx(float(scores.mean()), rel=1e-12)
            assert variances[p] == pytest.approx(float(scores.var(ddof=1)), rel=1e-12)

    def test_symmetric_model_corpus_has_small_pair_mean_skewness(self):
        # one pair per target so the pair means are independent draws from
        # a symmetric mixture; skewness then vanishes up to ~ sqrt(6/n)
        spec = SyntheticSpec(
            theta=Hyperparameters(0.0, 1.0, 5.0, 4.0, 4.0, 4.0),
            t_targets=3000,
            n_impostors_per_target=1,
            l_scores_per_pair=3,
            seed=17,
        )
        skew = sample_skewness(corpora.pack(model_blocks(spec)).pair_means())
        assert abs(skew) < 4.0 * np.sqrt(6.0 / 3000)

    def test_json_serialisable(self):
        report = diagnose(self.corpus(), 2)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["avg_pairwise_skewness"] == pytest.approx(0.0, abs=1e-12)
        assert payload["skewness_excluded_pairs"] == 1


@st.composite
def pair_scores(draw) -> list[list[float]]:
    """1-12 pairs of 1-40 scores, constant pairs among them, plus exact copies of some, whose means tie."""
    value = st.sampled_from([-2.5, -0.3, 0.1, 0.2, 0.7, 3.25]) | st.floats(-1e3, 1e3)
    constant = st.tuples(value, st.integers(1, 40)).map(lambda pair: [pair[0]] * pair[1])
    pairs = draw(st.lists(st.lists(value, min_size=1, max_size=40) | constant, min_size=1, max_size=12))
    return pairs + [pairs[k] for k in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3))]


class TestBlockedReductions:
    """The per-pair reductions run over blocks of whole pairs: each value keeps the bits of one
    reduction over the whole score array, and memory does not grow with the scores per pair."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pairs=pair_scores(), block=st.integers(1, 64), tau=st.sampled_from([-1.0, 0.1, 0.2, 0.7]))
    def test_blocks_keep_the_bits_of_one_block(self, monkeypatch, pairs, block, tau):
        codes = np.arange(len(pairs))
        counts = np.array([len(scores) for scores in pairs])
        scores = np.concatenate(pairs)
        offsets = np.append(0, np.cumsum(counts))
        corpus = PackedCorpus.from_codes(["t"], [f"i{k:02d}" for k in codes], 0 * codes, codes, counts, scores)
        with monkeypatch.context() as patched:
            patched.setattr(score_data, "_BLOCK_SCORES", block)
            assert np.array_equal(corpus.pair_centered_ss, one_block_centered_ss(scores, offsets))
            assert np.array_equal(corpus.pair_exceed_fraction(tau), one_block_exceed_fraction(scores, offsets, tau))
            assert np.array_equal(corpus.pair_skewness(), one_block_skewness(scores, offsets), equal_nan=True)
            for values in (scores, corpus.pair_means()):
                skew = sample_skewness(values)
                want = one_block_skewness(values, np.array([0, values.size]))[0] if values.size >= 3 else np.nan
                assert np.array_equal(np.nan if skew is None else skew, want, equal_nan=True)

    @pytest.mark.parametrize("scores, what", [
        ([1e308, 1.5e308], "the sum"),
        ([1.7e308, -1.7e308, 0.5e308], "the sum of squared deviations"),  # a finite sum
        ([1e103, -1e103, 3e103], "the sum of cubed deviations"),  # finite squares
    ])
    def test_a_sum_out_of_the_float_range_names_its_pair(self, scores, what):
        corpus = corpora.groups({"t": {"a": [1.0, 2.0, 4.0], "b": scores}})
        with pytest.raises(NumericError) as info:
            diagnose(corpus, 1)
        assert str(info.value) == f"{what} of the scores of target 't' and impostor 'b' is not finite"

    @pytest.mark.parametrize("values, what", [
        ([1.7e308, 1.7e308, 0.0], "the sum"),
        ([1.7e308, -1.7e308, 0.0], "the sum of squared deviations"),
        ([1e103, -1e103, 3e103], "the sum of cubed deviations"),
    ])
    def test_sample_skewness_names_its_values(self, values, what):
        with pytest.raises(NumericError) as info:
            sample_skewness(values, "the pair means")
        assert str(info.value) == f"{what} of the pair means is not finite"
        with pytest.raises(NumericError, match=f"^{what} of the values is not finite$"):
            sample_skewness(values)

    # five blocks of 2**16 scores: a reduction holds at most four block-length arrays at a time
    PEAK_BOUND = 2.5 * 2**20

    @pytest.mark.parametrize("l", [4, 25, 100])
    def test_peak_memory_does_not_grow_with_scores_per_pair(self, l):
        # the one-block reductions peaked at 10.1 (fit), 10.2 (diagnose) and 5.7 MiB (worst case) at L = 100
        theta = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)
        corpus = corpora.pack(model_blocks(SyntheticSpec(theta, t_targets=64, n_impostors_per_target=100,
                                                         l_scores_per_pair=l, seed=1)))
        calls = [(fit,), *((diagnose, n) for n in (1, 16, 64)), *((estimate_pfa_worst_case, 1.5, n) for n in (1, 16, 64))]
        for fn, *args in calls:
            _, peak = corpora.traced_peak(fn, dataclasses.replace(corpus), *args)  # a copy without cached reductions
            assert peak < self.PEAK_BOUND, (fn.__name__, args, peak)


class TestPackCorpus:
    def test_layout_and_reductions(self):
        corpus = corpora.groups(
            {"b": {"z": [4.0, 5.0, 6.0]}, "a": {"y": [3.0], "x": [1.0, 2.0]}}
        )
        assert corpus.n_targets == 2
        assert corpus.n_pairs == 3
        assert corpus.target_ids == ("a", "b")
        assert corpus.impostor_ids == ("x", "y", "z")
        assert np.array_equal(corpus.pair_target, [0, 0, 1])
        assert np.array_equal(corpus.pair_count, [2, 1, 3])
        assert np.array_equal(corpus.pairs_per_target, [2, 1])
        assert np.array_equal(corpus.pair_sums, [3.0, 3.0, 15.0])
        assert np.allclose(corpus.pair_means(), [1.5, 3.0, 5.0])
        variances = corpus.pair_variances()
        assert variances[0] == pytest.approx(0.5)
        assert np.isnan(variances[1])
        assert variances[2] == pytest.approx(1.0)
        assert np.allclose(corpus.pair_exceed_fraction(2.5), [0.0, 1.0, 1.0])

    def test_scores_immutable(self):
        corpus = corpora.groups({"a": {"x": [1.0, 2.0]}})
        arrays = (corpus.scores, corpus.pair_offsets, corpus.target_offsets, corpus.pair_impostor, corpus.pair_target)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 5

    def test_shared_impostors_are_held_once(self, tmp_path, parses):
        path = write(tmp_path, "c.csv", [CSV_ROWS[0], "b,z,5", "a,y,2", "b,x,3", "a,x,1", "b,y,4"])
        corpus = load_corpus(path)
        assert corpus.target_ids == ("a", "b")
        assert corpus.impostor_ids == ("x", "y", "z")
        assert corpus.pair_impostor.tolist() == [0, 1, 0, 1, 2]
        assert corpus.pair_target.tolist() == [0, 0, 1, 1, 1]
        assert corpus.scores.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        _assert_same_bits(load_corpus(path), corpus)
        assert parses[0] == 1

    def test_an_impostor_without_scores_gets_no_name(self):
        corpus = corpora.groups({"a": {"x": [], "y": [1.0]}})
        assert corpus.impostor_ids == ("y",)
        assert corpus.pair_impostor.tolist() == [0]


# ids mix commas, quotes and non-ASCII so that CSV quoting and code point
# order are exercised; the loader strips ids, so none has outer whitespace
_IDS = st.text(alphabet='ab,"\u00e9 Z', min_size=1, max_size=3).map(str.strip).filter(bool)
_SCORES = st.floats(allow_nan=False, allow_infinity=False)


# ids that need no CSV quoting: plain ASCII without spaces, quotes or commas
_PLAIN_IDS = st.text(alphabet=string.ascii_letters + string.digits + "_#.-", min_size=1, max_size=3)


@st.composite
def _corpus_rows(draw, id_strategy=_IDS):
    ids = draw(st.lists(id_strategy, min_size=2, max_size=6, unique=True))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    return [(*draw(pair), draw(_SCORES)) for _ in range(draw(st.integers(1, 25)))]


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _corpus_text(rows, fmt: str, blanks: list[int], rng: random.Random) -> str:
    """`rows` as a CSV or JSONL file, with blank or whitespace-only lines at `blanks`."""
    if fmt == "csv":
        header = _csv_line(["target_id", "impostor_id", "score"])
        lines = [_csv_line([t, i, repr(score)]) for t, i, score in rows]
        variants = ["\n", "   \n", "\t\n"]
    else:
        header = ""
        lines = [json.dumps({"target": t, "impostor": i, "score": score}) + "\n" for t, i, score in rows]
        variants = ["\n", "   \n", "\t\n"]
    for position in sorted(blanks, reverse=True):
        lines.insert(min(position, len(lines)), rng.choice(variants))
    return header + "".join(lines)


class TestLoaderProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=_corpus_rows(),
        fmt=st.sampled_from(["csv", "jsonl"]),
        blanks=st.lists(st.integers(0, 25), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_grouping_oracle_and_ignores_row_order(self, tmp_path, rows, fmt, blanks, seed):
        rng = random.Random(seed)
        path = tmp_path / f"c.{fmt}"
        path.write_text(_corpus_text(rows, fmt, blanks, rng))
        loaded = load_corpus(path)
        path.write_text(_corpus_text(rng.sample(rows, len(rows)), fmt, blanks, rng))
        shuffled = load_corpus(path)
        _assert_matches_oracle(loaded, rows)
        # a shuffle keeps the layout and each pair's multiset of scores
        assert shuffled.target_ids == loaded.target_ids
        assert shuffled.impostor_ids == loaded.impostor_ids
        assert np.array_equal(shuffled.pair_impostor, loaded.pair_impostor)
        assert np.array_equal(shuffled.pair_offsets, loaded.pair_offsets)
        assert np.array_equal(shuffled.target_offsets, loaded.target_offsets)
        pair_of_score = np.repeat(np.arange(loaded.n_pairs), loaded.pair_count)
        assert np.array_equal(
            shuffled.scores[np.lexsort((shuffled.scores, pair_of_score))],
            loaded.scores[np.lexsort((loaded.scores, pair_of_score))],
        )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_corpus_rows(_PLAIN_IDS), order=st.permutations(range(3)), final_newline=st.booleans())
    def test_any_header_order_and_final_newline(self, tmp_path, rows, order, final_newline):
        header = ("target_id", "impostor_id", "score")
        lines = [",".join(header[k] for k in order)]
        lines += [",".join((t, i, repr(score))[k] for k in order) for t, i, score in rows]
        path = tmp_path / "c.csv"
        path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
        _assert_matches_oracle(load_corpus(path), rows)


def _label_text(rows) -> str:
    return "label,score\n" + "".join(_csv_line([label, repr(score)]) for label, score in rows)


_LABEL_ROWS = st.lists(st.tuples(st.sampled_from(["target", "nontarget"]), _SCORES), min_size=2, max_size=25).filter(
    lambda rows: len({label for label, _ in rows}) == 2
)


def _assert_same_bits(got, want):
    """`got` holds exactly the values, dtypes and bits of `want`, read-only."""
    assert type(got) is type(want)
    for field in type(want).ARRAYS:
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not a.flags.writeable


@pytest.fixture
def parses(monkeypatch):
    """The number of parses so far: each one passes its rows through `_validated` once."""
    count = [0]
    validated = score_data._validated

    def counted(*args, **kwargs):
        count[0] += 1
        return validated(*args, **kwargs)

    monkeypatch.setattr(score_data, "_validated", counted)
    return count


def _entries() -> list:
    where = score_data._cache_dir()
    return sorted(where.iterdir()) if where.is_dir() else []


def _small_corpus(tmp_path, name="c.csv", score=0.5):
    path = tmp_path / name
    path.write_text(f"target_id,impostor_id,score\na,b,{score}\na,c,1.5\n")
    return path


class TestCache:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_corpus_rows(), labels=_LABEL_ROWS, kind=st.sampled_from(["csv", "jsonl", "labels"]),
           blanks=st.lists(st.integers(0, 25), max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_hit_equals_the_parse_bit_for_bit(self, tmp_path, monkeypatch, parses, rows, labels, kind, blanks, seed):
        if kind == "labels":
            path, load = tmp_path / "l.csv", load_labeled_scores
            path.write_text(_label_text(labels))
        else:
            path, load = tmp_path / f"c.{kind}", load_corpus
            path.write_text(_corpus_text(rows, kind, blanks, random.Random(seed)))
        with tempfile.TemporaryDirectory(dir=tmp_path) as cache, monkeypatch.context() as env:
            env.setenv("XDG_CACHE_HOME", cache)
            parsed = load(path)
            assert parses[0] == 1 and len(_entries()) == 1
            _assert_same_bits(load(path), parsed)
            assert parses[0] == 1
        parses[0] = 0

    def test_jsonl_ids_with_lone_surrogates(self, tmp_path, parses):
        path = tmp_path / "c.jsonl"
        path.write_bytes(_jsonl({"target": "\ud800", "impostor": "\udfff", "score": 1},
                                {"target": "\ud83d", "impostor": "\ude00bé", "score": 2}))
        parsed = load_corpus(path)
        assert parsed.target_ids == ("\ud800", "\ud83d")
        _assert_same_bits(load_corpus(path), parsed)
        assert parses[0] == 1

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_messages_name_the_same_ids_from_a_hit(self, tmp_path, parses, fmt):
        # ids beyond ASCII and with a NUL, and in JSON lone surrogates, which UTF-8 text holds only as surrogatepass
        target, impostor = ("\ud800é", "b\udfff\x00") if fmt == "jsonl" else ("été", "b\x00日")
        rows = [(target, impostor, 1e308), (target, impostor, 1.5e308), ("z", impostor, 1.0), ("z", "q", 2.0)]
        path = tmp_path / f"c.{fmt}"
        if fmt == "csv":
            path.write_text("target_id,impostor_id,score\n" + "".join(_csv_line([t, i, repr(v)]) for t, i, v in rows))
        else:
            path.write_bytes(_jsonl(*({"target": t, "impostor": i, "score": v} for t, i, v in rows)))
        messages = []
        for _ in range(2):  # a parse, then a cache hit
            corpus = load_corpus(path)
            with pytest.raises(NumericError) as overflow:
                corpus.pair_sums
            with pytest.raises(ValueError) as too_many:
                estimate_pfa_worst_case(corpus, 0.0, 2)
            messages.append((str(overflow.value), str(too_many.value)))
        assert parses[0] == 1
        assert messages[0] == messages[1] == (
            f"the sum of the scores of target {target!r} and impostor {impostor!r} is not finite",
            f"n_impostors=2 exceeds the 1 impostors available for target {target!r}",
        )

    @pytest.mark.parametrize("kind", ["corpus", "labels"])
    def test_an_entry_holds_the_arrays_that_its_record_declares(self, tmp_path, kind):
        if kind == "corpus":
            record = load_corpus(_small_corpus(tmp_path))
        else:
            path = tmp_path / "l.csv"
            path.write_text("label,score\ntarget,1\nnontarget,0\n")
            record = load_labeled_scores(path)
        [entry] = _entries()
        with np.load(entry) as npz:
            arrays = dict(npz)
        assert [(name, a.dtype) for name, a in arrays.items()] == list(type(record).ARRAYS.items())
        assert all(np.array_equal(a, getattr(record, name)) for name, a in arrays.items())

    def test_a_hit_holds_no_more_than_the_arrays_of_its_corpus(self, tmp_path):
        # 30 000 distinct impostor ids: held as `str` objects, they took about 1.5 MB more than these arrays
        n_targets, n_ids = 3, 30_000
        path = tmp_path / "c.csv"
        path.write_text(HEADER.decode() + "".join(f"t{k % n_targets},i{k:05d},{k / 8}\n" for k in range(n_ids)))
        load_corpus(path)
        tracemalloc.start()
        try:
            hit = load_corpus(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (hit.n_targets, hit.n_pairs, hit.n_scores) == (n_targets, n_ids, n_ids)
        text = 2 * n_targets + 6 * n_ids  # "t0" and "i00000" for each id
        arrays = 8 * (n_ids + (n_targets + 1) + n_ids + (n_ids + 1) + (n_targets + n_ids + 1)) + text
        assert held < arrays + 32 * 1024  # the arrays and the objects that hold them

    def test_an_edited_file_is_parsed_again(self, tmp_path, parses):
        path = _small_corpus(tmp_path)
        assert load_corpus(path).scores.tolist() == [0.5, 1.5]
        _small_corpus(tmp_path, score=2.5)
        assert load_corpus(path).scores.tolist() == [2.5, 1.5]
        assert parses[0] == 2 and len(_entries()) == 2
        assert load_corpus(path).scores.tolist() == [2.5, 1.5]
        assert parses[0] == 2

    def test_the_key_covers_kind_parser_numpy_and_bytes(self, tmp_path, monkeypatch):
        path = _small_corpus(tmp_path)

        def key(kind="csv"):
            with open(path, "rb") as fh:
                return score_data._cache_key(fh, kind)

        keys = [key(), key("jsonl"), key("labels")]
        _small_corpus(tmp_path, score=0.25)
        keys.append(key())
        source = tmp_path / "score_data.py"
        source.write_bytes(Path(score_data.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(score_data, "__file__", str(source))
        keys.append(key())
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
        keys.append(key())
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("name,content", [
        ("c.csv", HEADER + b"a,b,1\na,a,1\n"),
        ("c.jsonl", _jsonl({"target": "a", "impostor": "b", "score": 1}) + b"{\n"),
        ("l.csv", b"label,score\ntarget,1\n"),
        ("c.csv", HEADER + b"a,b,1\nd,\xff,3\n"),
    ])
    def test_a_failed_parse_saves_nothing(self, tmp_path, parses, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        load = load_labeled_scores if name.startswith("l") else load_corpus
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                load(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and parses[0] == 2
        assert _entries() == []

    def test_a_file_changed_during_the_parse_is_not_saved(self, tmp_path, monkeypatch, parses):
        path = _small_corpus(tmp_path)
        validated = score_data._validated

        def touched(*args, **kwargs):
            os.utime(path, ns=(1, 1))
            return validated(*args, **kwargs)

        monkeypatch.setattr(score_data, "_validated", touched)
        assert load_corpus(path).scores.tolist() == [0.5, 1.5]
        assert _entries() == []

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy", "missing", "dtype", "offsets",
                                        "names", "impostor-code-high", "impostor-code-negative",
                                        "impostor-codes-truncated", "empty-target", "empty-pair", "empty-name",
                                        "no-targets", "labels-empty"])
    def test_a_bad_entry_is_a_miss_and_is_replaced(self, tmp_path, parses, damage):
        labels = damage.startswith("labels")
        path = tmp_path / ("l.csv" if labels else "c.csv")
        if labels:
            path.write_text("label,score\ntarget,1\nnontarget,0\n")
        elif damage == "empty-target":  # two targets of two pairs each: target_offsets [0, 2, 4]
            path.write_text("target_id,impostor_id,score\na,b,0.5\na,c,1.5\nd,b,2\nd,c,3\n")
        else:
            _small_corpus(tmp_path)
        load = load_labeled_scores if labels else load_corpus
        parsed = load(path)
        [entry] = _entries()
        with np.load(entry) as npz:
            arrays = dict(npz)
        if damage == "truncated":
            entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        elif damage == "garbage":
            entry.write_bytes(b"garbage")
        elif damage == "empty":
            entry.write_bytes(b"")
        elif damage == "npy":
            with entry.open("wb") as out:
                np.save(out, arrays["scores"])
        else:
            if damage == "missing":
                del arrays["scores"]
            elif damage == "dtype":
                arrays["scores"] = arrays["scores"].astype(np.float32)
            elif damage == "offsets":
                arrays["pair_offsets"][-1] += 1
            elif damage == "names":
                arrays["name_offsets"][1] = arrays["name_offsets"][2] + 1
            elif damage == "impostor-code-high":
                arrays["pair_impostor"][-1] = len(parsed.impostor_ids)
            elif damage == "impostor-code-negative":
                arrays["pair_impostor"][0] = -1
            elif damage == "impostor-codes-truncated":
                arrays["pair_impostor"] = arrays["pair_impostor"][:-1]
            elif damage == "empty-target":
                arrays["target_offsets"][1] = 0
            elif damage == "empty-pair":
                arrays["pair_offsets"][1] = 0
            elif damage == "empty-name":
                arrays["name_offsets"][1] = 0
            elif damage == "no-targets":
                for name in ("names", "pair_impostor", "scores"):
                    arrays[name] = arrays[name][:0]
                for name in ("name_offsets", "target_offsets", "pair_offsets"):
                    arrays[name] = arrays[name][:1]
            else:
                arrays["target_scores"] = arrays["target_scores"][:0]
            with entry.open("wb") as out:
                np.savez(out, **arrays)
        _assert_same_bits(load(path), parsed)
        assert parses[0] == 2 and _entries() == [entry]
        _assert_same_bits(load(path), parsed)
        assert parses[0] == 2

    @pytest.mark.parametrize("where", ["read-only", "file", "no-home"])
    def test_an_unusable_cache_still_loads(self, tmp_path, monkeypatch, capfd, parses, where):
        path = _small_corpus(tmp_path)
        if where == "read-only":
            cache = tmp_path / "cache"
            (cache / "wcfar").mkdir(parents=True)
            (cache / "wcfar").chmod(0o555)
            monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        elif where == "file":
            (tmp_path / "cache").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        else:
            monkeypatch.delenv("XDG_CACHE_HOME")
            monkeypatch.delenv("HOME", raising=False)
        want = corpora.groups({"a": {"b": [0.5], "c": [1.5]}})
        assert load_corpus(path) == want and load_corpus(path) == want
        assert capfd.readouterr() == ("", "")
        if where == "read-only" and os.geteuid() == 0:  # permissions do not bind root
            return
        assert parses[0] == 2  # both loads
        assert where == "no-home" or _entries() == []

    def test_a_relative_xdg_cache_home_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert score_data._cache_dir() == tmp_path / ".cache" / "wcfar"
        monkeypatch.setenv("HOME", "")
        assert score_data._cache_dir() is None

    @pytest.mark.parametrize("name,content", [
        ("c.csv", HEADER + b"a,b,0.5\na,c,1.5\n"),
        ("c.jsonl", _jsonl({"target": "a", "impostor": "b", "score": 0.5},
                           {"target": "a", "impostor": "c", "score": 1.5})),
    ])
    def test_a_fifo_is_parsed_and_not_saved(self, tmp_path, parses, name, content):
        path = tmp_path / name
        os.mkfifo(path)
        for _ in range(2):
            writer = threading.Thread(target=path.write_bytes, args=(content,), daemon=True)
            writer.start()
            assert load_corpus(path) == corpora.groups({"a": {"b": [0.5], "c": [1.5]}})
            writer.join(timeout=10)
        assert parses[0] == 2 and _entries() == []

    def test_the_least_recently_used_entry_beyond_16_is_deleted(self, tmp_path, parses):
        paths = [_small_corpus(tmp_path, f"c{k}.csv", score=k) for k in range(score_data._CACHE_ENTRIES + 1)]
        entries = []
        for k, path in enumerate(paths[:-1]):
            load_corpus(path)
            [new] = set(_entries()) - set(entries)
            entries.append(new)
            os.utime(new, ns=(10**9 * k, 10**9 * k))
        load_corpus(paths[0])  # a hit makes the oldest entry the newest
        assert parses[0] == score_data._CACHE_ENTRIES
        assert entries[0].stat().st_mtime_ns > 10**18
        load_corpus(paths[-1])
        assert len(_entries()) == score_data._CACHE_ENTRIES
        assert not entries[1].exists() and set(entries) - {entries[1]} <= set(_entries())
        load_corpus(paths[0])
        assert parses[0] == score_data._CACHE_ENTRIES + 1
        load_corpus(paths[1])
        assert parses[0] == score_data._CACHE_ENTRIES + 2
