"""The bulk TSV reader against the per-line rules it defers to.

``corpus.read_tsv`` converts a block of lines at a time, a column at a
time, and sends only the lines it cannot vouch for through the line
functions (``corpus_row``, ``predictors.external_row``).  These tests
hold it, at every block size from 1 to 64 bytes, to the plain loop over
the file's lines (``oracles.reference_read``) on corpora and predictor
tables with injected defects: the same table, code order, line numbers
and malformed list, or the same exception.  Its peak memory is held to
a bound on a corpus of a few MB.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpred import files
from ctxpred.corpus import (
    CORPUS_HEADER,
    FIELD_KINDS,
    corpus_row,
    generate_synthetic,
    parse_corpus,
    read_tsv,
    write_corpus_tsv,
)
from ctxpred.errors import FormatError
from ctxpred.files import read_blocks
from ctxpred.lm import load_lm_tsv
from ctxpred.predictors import (
    EXTERNAL_HEADER,
    external_row,
    parse_external_tsv,
    write_external_tsv,
)
from oracles import reference_external, reference_read

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# odd forms of each kind of field (FIELD_KINDS); the long label is
# longer than the bulk reader converts
ODD = {
    "label": [
        "", "été", "a\x1cb", "x\x85", "a b", "\u2028", "a\x00", "\x00", "w" * 260,
    ],
    "index": [
        "+5", " 5", "5 ", "٣", "1_000", "-1", "", "abc", "007", "-0",
        "1234567890123456789", "999999999999999999", "9999999999999999999",
    ],
    "value": [
        "NA", "", "nan", "inf", "-inf", "1e3", "1E+3", "2.5e-3", "-0.0", "0", " 5.0",
        "5.", ".5", "1_000.5", "+5", "1e400", "-5.0", "5e", "1.2.3", "1e+", "٣",
        "0.1e1.5", "12e-", "1.5E5", "5+3", "1e-400", "00.50",
    ],
    "flag": ["2", "", " 1", "01", "True", "-0"],
}
# a short string of these characters stands in for an odd field, too
ODD_CHARS = {"index": "0123456789+-_ ", "value": "0123456789.eE+-"}
# labels of up to 8 bytes, and longer ones, are coded in different ways
PLAIN = {
    "label": st.sampled_from(["p0", "p1", "d0", "a", "bb", "ccc", "d00000001", "éléments"]),
    "index": st.integers(0, 40).map(str),
    "value": st.floats(0.0, 1e6, allow_nan=False).map(repr),
    "flag": st.sampled_from(["0", "1"]),
}


def odd(kind):
    forms = st.sampled_from(ODD[kind])
    if kind in ODD_CHARS:
        forms = st.one_of(forms, st.text(alphabet=ODD_CHARS[kind], min_size=1, max_size=6))
    return forms


@st.composite
def fields(draw, header):
    """One row's fields: all plain, or (half the time) one of them odd."""
    kinds = [FIELD_KINDS[name] for name in header]
    row = [draw(PLAIN[kind]) for kind in kinds]
    if draw(st.booleans()):
        j = draw(st.integers(0, len(row) - 1))
        row[j] = draw(odd(kinds[j]))
    return row


@st.composite
def tsv_file(draw, header):
    """A TSV file as bytes: rows of ``fields`` with injected defects in
    line structure, field counts and encoding."""
    lines = []
    for row in draw(st.lists(fields(header), max_size=25)):
        shape = draw(st.sampled_from(["keep"] * 8 + ["drop", "extra", "blank", "nul"]))
        if shape == "drop":
            row.pop()
        elif shape == "extra":
            row.append("x")
        elif shape == "blank":
            lines.append("")
        elif shape == "nul":
            row[0] += "\x00"
        lines.append("\t".join(row))
    head = "\t".join(header)
    if draw(st.integers(0, 3)) == 0:
        head = "\ufeff" + head
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = ending.join([head, *lines])
    if draw(st.booleans()):
        text += ending
    data = text.encode("utf-8")
    if lines and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(len(head), len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3"])) + data[at:]
    return data


def outcome(read, path):
    try:
        return "ok", read(path)
    except Exception as exc:  # the same class and message
        return "raised", (type(exc), str(exc))


def assert_same_table(got, want):
    assert list(got.columns) == list(want.columns)
    assert got.doc_ids == want.doc_ids
    assert got.types == want.types
    assert got.participants == want.participants
    for name in want.columns:
        a, b = got[name], want[name]
        assert a.dtype == b.dtype, name
        if a.dtype.kind == "f":  # the bits, so -0.0 and NaN count
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b), name


def counting(parse_line):
    """``parse_line`` that counts its calls in ``.calls``."""

    def wrapped(line):
        wrapped.calls += 1
        return parse_line(line)

    wrapped.calls = 0
    return wrapped


def in_blocks(size, read):
    """``read`` with ``read_blocks`` reading, checking and handing on
    ``size`` bytes of lines at a time, so that lines longer than a block,
    every kind of line ending and invalid UTF-8 fall across block edges."""

    def wrapped(path):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(files, "BLOCK_BYTES", size)
            return read(path)

    return wrapped


BLOCK_BYTES = st.integers(1, 64)

# files whose line endings and lengths fall across block edges at the
# block sizes below: "\r\n" split between two reads, a lone "\r" at the
# end, a line longer than a block, no final newline, nothing at all
EDGE_FILES = {
    "crlf": b"h\r\nab\r\ncd\r\n",
    "cr-at-end": b"h\nab\r",
    "cr-lines": b"h\rab\rcd",
    "cr-then-crlf": b"a\r\r\nb\n\r\n\rc\r",
    "long-line": b"h\n" + b"x" * 21 + b"\r\nab\n",
    "no-final-newline": b"h\nab\ncd",
    "empty": b"",
    "header-only": b"h",
    "header-newline": b"h\n",
    "utf-8": "h\né\r\n\U0001f600x\rz".encode(),
}


class TestBlockReader:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 64])
    @pytest.mark.parametrize("name", EDGE_FILES)
    def test_blocks_are_the_lines_text_mode_reads(self, tmp_path, monkeypatch, name, size):
        data = EDGE_FILES[name]
        path = tmp_path / "f.tsv"
        path.write_bytes(data)
        monkeypatch.setattr(files, "BLOCK_BYTES", size)
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            blocks = list(read_blocks(handle, digest))
        with open(path, encoding="utf-8") as text:
            assert b"".join(blocks) == text.read().encode()
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
        for block in blocks[:-1]:
            # whole lines, at most a block's bytes of them or one longer line
            assert block.endswith(b"\n")
            assert len(block) <= size or block.count(b"\n") == 1
        assert all(blocks)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("ending", ["", "\n", "\r", "\r\n"])
    def test_empty_and_header_only_files(self, tmp_path, monkeypatch, size, ending):
        path = tmp_path / "c.tsv"
        monkeypatch.setattr(files, "BLOCK_BYTES", size)
        for text in ["", "\t".join(CORPUS_HEADER) + ending]:
            path.write_text(text, encoding="utf-8", newline="")
            got = outcome(lambda p: read_tsv(p, CORPUS_HEADER, corpus_row), path)
            want = outcome(lambda p: reference_read(p, CORPUS_HEADER, corpus_row), path)
            assert got[0] == want[0], (text, got, want)
            if got[0] == "raised":
                assert got[1] == want[1]
                continue
            assert len(got[1][0]) == 0 and got[1][1].size == 0 and got[1][2] == []

    @pytest.mark.parametrize("size", [1, 3, 7, 64, 1 << 19])
    def test_invalid_utf8_after_a_bad_header_is_the_error(self, tmp_path, monkeypatch, size):
        path = tmp_path / "c.tsv"
        rows = [f"p0\td0\t0\t{i}\ta\t200.0\t0" for i in range(40)]
        path.write_bytes("\n".join(["participant\tdoc", *rows]).encode() + b"\n\xff\n")
        monkeypatch.setattr(files, "BLOCK_BYTES", size)
        error = (FormatError, f"{path}:42: not UTF-8: byte 0xff (invalid start byte)")
        assert outcome(lambda p: read_tsv(p, CORPUS_HEADER, corpus_row), path) == ("raised", error)
        assert outcome(lambda p: reference_read(p, CORPUS_HEADER, corpus_row), path) == (
            "raised", error)

    def test_digest_is_of_the_bytes_read(self, tmp_path):
        """A CRLF file is parsed as its LF copy, and digested as it is."""
        data = "\t".join(CORPUS_HEADER).encode() + b"".join(
            f"\r\np0\td0\t0\t{i}\ta\t200.5\t0".encode() for i in range(5))
        path = tmp_path / "c.tsv"
        path.write_bytes(data)
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            rows, malformed = parse_corpus(handle, digest)
        assert (len(rows), malformed) == (5, [])
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


class TestAgainstLineRules:
    @settings(max_examples=300, deadline=None)
    @given(data=tsv_file(CORPUS_HEADER), block=BLOCK_BYTES)
    def test_corpus(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("c") / "corpus.tsv"
        path.write_bytes(data)
        got = outcome(in_blocks(block, lambda p: read_tsv(p, CORPUS_HEADER, corpus_row)), path)
        want = outcome(lambda p: reference_read(p, CORPUS_HEADER, corpus_row), path)
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got[1] == want[1]
            return
        (table, lines, malformed), (ref, ref_lines, ref_malformed) = got[1], want[1]
        assert malformed == ref_malformed
        assert lines.tolist() == ref_lines.tolist()
        assert_same_table(table, ref)

    @settings(max_examples=300, deadline=None)
    @given(data=tsv_file(EXTERNAL_HEADER), block=BLOCK_BYTES)
    def test_external(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("e") / "pred.tsv"
        path.write_bytes(data)
        got = outcome(in_blocks(block, parse_external_tsv), path)
        want = outcome(reference_external, path)
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got[1] == want[1]
            return
        ext = got[1]
        rows = zip(
            ext.decode("doc"),
            ext["token_idx"].tolist(),
            ext.decode("token"),
            ext["surprisal"].tolist(),
            ext["frequency"].tolist(),
        )
        as_dict = {(d, i): (t, s, f) for d, i, t, s, f in rows}
        assert list(as_dict.items()) == list(want[1].items())

    @settings(max_examples=200, deadline=None)
    @given(keys=st.lists(st.tuples(st.sampled_from(["d0", "d1", "d2"]), st.integers(0, 6)),
                         min_size=1, max_size=12))
    def test_external_key_order(self, tmp_path_factory, keys):
        """Plain rows only: repeated and decreasing keys decide alone."""
        path = tmp_path_factory.mktemp("e") / "pred.tsv"
        rows = [f"{doc}\t{idx}\ta\t1.5\t2.5" for doc, idx in keys]
        path.write_text("\n".join(["\t".join(EXTERNAL_HEADER), *rows]) + "\n")
        got = outcome(parse_external_tsv, path)
        want = outcome(reference_external, path)
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got[1] == want[1]

    @settings(max_examples=100, deadline=None)
    @given(data=tsv_file(EXTERNAL_HEADER), block=BLOCK_BYTES)
    def test_external_rows(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("e") / "pred.tsv"
        path.write_bytes(data)
        read = in_blocks(block, lambda p: read_tsv(p, EXTERNAL_HEADER, external_row))
        got = outcome(read, path)
        want = outcome(lambda p: reference_read(p, EXTERNAL_HEADER, external_row), path)
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got[1] == want[1]
            return
        assert got[1][2] == want[1][2]
        assert got[1][1].tolist() == want[1][1].tolist()
        assert_same_table(got[1][0], want[1][0])


@pytest.mark.parametrize(
    "header, parse_line, plain",
    [
        (CORPUS_HEADER, corpus_row, ["p0", "d0", "0", "{i}", "a", "200.5", "0"]),
        (EXTERNAL_HEADER, external_row, ["d0", "{i}", "a", "2.5", "3.0"]),
    ],
)
def test_each_odd_field(tmp_path, header, parse_line, plain):
    """Every listed odd form, in each column, on a row of plain ones."""
    path = tmp_path / "t.tsv"
    for j, name in enumerate(header):
        for form in ODD[FIELD_KINDS[name]]:
            rows = [[f.format(i=i) for f in plain] for i in range(4)]
            rows[2][j] = form
            text = "\n".join(["\t".join(header), *("\t".join(row) for row in rows)])
            path.write_text(text + "\n", encoding="utf-8")
            got = outcome(lambda p: read_tsv(p, header, parse_line), path)
            want = outcome(lambda p: reference_read(p, header, parse_line), path)
            assert got[0] == want[0] == "ok", (name, form, got, want)
            assert got[1][2] == want[1][2], (name, form)
            assert got[1][1].tolist() == want[1][1].tolist(), (name, form)
            assert_same_table(got[1][0], want[1][0])


EXT_HEAD = "\t".join(EXTERNAL_HEADER).encode()


@pytest.mark.parametrize(
    "data, line, byte, reason",
    [
        # invalid UTF-8 is found before a bad header, a bad line or a
        # repeated key, wherever it is; a character left unfinished at
        # the end of the file included
        (b"\xef\xbb\xbf" + EXT_HEAD + b"\nd0\t0\ta\t2.5\t3.0\nd0\t1\ta\t2.5\xe2\x82",
         3, 0xe2, "unexpected end of data"),
        (EXT_HEAD + b"\nd0\t0\ta\tx\t3.0\nd0\t1\ta\t2.5\t3.0\n\xc3",
         4, 0xc3, "unexpected end of data"),
        (EXT_HEAD + b"\nd0\t1\ta\t2.5\t3.0\nd0\t0\ta\t2.5\t3.0\nd0\t1\tb\xe2\x82",
         4, 0xe2, "unexpected end of data"),
        # lines end at "\r" and at "\r\n" as at "\n"
        (EXT_HEAD + b"\rd0\t0\ta\t2.5\t3.0\rd0\t0\ta\t2.5\t3.0\r\xc3",
         4, 0xc3, "unexpected end of data"),
        (EXT_HEAD + b"\r\nd0\t0\ta\t2.5\t3.0\r\nd0\t0\ta\t2.5\t3.0\r\n\xc3",
         4, 0xc3, "unexpected end of data"),
        (EXT_HEAD + b"\r\xc3", 2, 0xc3, "unexpected end of data"),
        (b"\xef\xbb\xbf" + EXT_HEAD + b"\nd0\t0\ta\t2.5\t3.0\n\xff",
         3, 0xff, "invalid start byte"),
        (EXT_HEAD + b"\nd0\t0\ta\tx\t3.0\nd0\t1\ta\t2.5\t3.0\n\xe2\x82\n",
         4, 0xe2, "invalid continuation byte"),
    ],
    ids=["bom", "bad-line", "key-order", "cr", "crlf", "open-header", "invalid", "invalid-mid"],
)
def test_unfinished_character_comes_after_the_lines_before_it(tmp_path, data, line, byte, reason):
    """The whole file is checked before any line is read, so its first
    invalid byte is the error, named by file, line and byte, even where
    a text reader would first have met the lines before it."""
    path = tmp_path / "pred.tsv"
    path.write_bytes(data)
    error = (FormatError, f"{path}:{line}: not UTF-8: byte 0x{byte:02x} ({reason})")
    assert outcome(parse_external_tsv, path) == ("raised", error)
    assert outcome(reference_external, path) == ("raised", error)
    for read in (read_tsv, reference_read):
        assert outcome(lambda p: read(p, EXTERNAL_HEADER, external_row), path) == ("raised", error)


class TestBulkPath:
    """The line functions see only the lines the bulk pass cannot read."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gen")
        lm = load_lm_tsv(FIXTURES / "mixture.tsv")
        coeffs = {"intercept": 200.0, "surprisal": 10.0, "frequency": 6.0, "length": 2.0}
        result = generate_synthetic(lm, coeffs, 10.0, n_docs=6, doc_len=40, seed=3,
                                    n_participants=2)
        write_corpus_tsv(result.observations, root / "corpus.tsv")
        write_external_tsv(result.records, root / "pred.tsv")
        return root

    def test_generated_corpus_reads_without_the_line_rules(self, generated):
        rule = counting(corpus_row)
        table, _, malformed = read_tsv(generated / "corpus.tsv", CORPUS_HEADER, rule)
        assert rule.calls == 0
        assert malformed == [] and len(table) > 0

    def test_written_predictor_file_reads_without_the_line_rules(self, generated):
        rule = counting(external_row)
        table, _, malformed = read_tsv(generated / "pred.tsv", EXTERNAL_HEADER, rule)
        assert rule.calls == 0
        assert malformed == [] and len(table) > 0

    def test_crlf_corpus_reads_without_the_line_rules(self, generated, tmp_path):
        text = (generated / "corpus.tsv").read_bytes()
        path = tmp_path / "crlf.tsv"
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        rule = counting(corpus_row)
        table, _, _ = read_tsv(path, CORPUS_HEADER, rule)
        assert rule.calls == 0
        want, _ = parse_corpus(generated / "corpus.tsv")
        assert_same_table(table, want)

    def test_na_rows_go_through_the_line_rules(self, tmp_path):
        path = tmp_path / "c.tsv"
        rows = [f"p0\td0\t0\t{i}\ta\t{200.0 + i!r}\t0" for i in range(30)]
        rows[4] = "p0\td0\t0\t4\ta\tNA\t1"
        rows[9] = "p0\td0\t0\t9\ta\t\t1"
        path.write_text("\t".join(CORPUS_HEADER) + "\n" + "\n".join(rows) + "\n")
        rule = counting(corpus_row)
        table, lines, malformed = read_tsv(path, CORPUS_HEADER, rule)
        assert rule.calls == 2
        assert malformed == []
        assert lines.tolist() == list(range(2, 32))
        assert np.isnan(table["rt_ms"][[4, 9]]).all()
        assert table["skipped"].tolist() == [i in (4, 9) for i in range(30)]


    def test_a_row_of_another_width_is_refused(self, tmp_path):
        # a row the line rules accept fills its line's slot, which only the
        # lines of the header's width have
        path = tmp_path / "c.tsv"
        rows = [f"p0\td0\t0\t{i}\ta\t200.0\t0" for i in range(3)]
        path.write_text("\t".join(CORPUS_HEADER) + "\n" + "\n".join([*rows, "p0\td0"]) + "\n")
        row = corpus_row(rows[0])
        with pytest.raises(ValueError, match="accepted a line of 2 fields; the header has 7"):
            read_tsv(path, CORPUS_HEADER, lambda line: row)


class TestPeakMemory:
    """The reader holds the columns it keeps and one block, never the
    file's bytes: at most 4 times the file's bytes, where converting the
    whole file at once took about 7.5 times, and in fact at most 2.5
    times (about 2.2 on this 3.6 MB file, where holding the file's
    bytes took 3.3).  No decoded copy of the file is held either."""

    @pytest.fixture(scope="class")
    def corpus_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("big") / "corpus.tsv"
        lm = load_lm_tsv(FIXTURES / "mixture.tsv")
        coeffs = {"intercept": 200.0, "surprisal": 10.0, "frequency": 6.0, "length": 2.0}
        result = generate_synthetic(lm, coeffs, 10.0, n_docs=120, doc_len=250, seed=4,
                                    n_participants=3)
        write_corpus_tsv(result.observations, path)
        # one participant name outside the BMP: decoded whole, the file
        # would take 4 bytes a character
        data = path.read_bytes().replace(b"\np00\t", "\np\U0001f600\t".encode(), 1)
        path.write_bytes(data)
        assert len(data) >= 3_000_000
        return path

    @staticmethod
    def parse_peak(corpus_file, path, final_newline):
        data = corpus_file.read_bytes()
        path.write_bytes(data if final_newline else data.removesuffix(b"\n"))
        tracemalloc.start()
        try:
            rows, malformed = parse_corpus(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(rows), malformed) == (data.count(b"\n") - 1, [])
        return peak / path.stat().st_size

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_peak_within_four_times_the_file(self, corpus_file, tmp_path, final_newline):
        ratio = self.parse_peak(corpus_file, tmp_path / "corpus.tsv", final_newline)
        assert ratio <= 4, ratio

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_peak_within_two_and_a_half_times_the_file(self, corpus_file, tmp_path,
                                                        final_newline):
        ratio = self.parse_peak(corpus_file, tmp_path / "corpus.tsv", final_newline)
        assert ratio <= 2.5, ratio
