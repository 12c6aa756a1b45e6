"""Reading-time corpora: parsing, participant aggregation, folds, synthesis.

The corpus exchange format is TSV with a fixed header::

    participant  doc_id  sentence_id  token_idx  token  rt_ms  skipped

one row per (participant, token).  Reading times stay in milliseconds
end to end.  Every stage holds its rows in one columnar ``TokenTable``.
``read_tsv`` converts this file and the external predictor file as
``files.read_blocks`` reads them, a checked block of lines at a time,
each block a column at a time, and ``write_tsv`` writes both by the same
column kinds; only rows the bulk pass cannot convert go through
``corpus_row``, each into its line's slot, so rows keep file order.
Reading never holds the file's bytes: only the columns it keeps (for a
corpus, about 1.25 times the file), one block and its arrays (about 5.6
times the block), so its tracemalloc peak is about 1.9 times a 6 MB
corpus file (2.2 times one of 3.6 MB).  Aggregation averages reading
times over the participants who did not skip the token, reading the
columns in place when the rows already ascend by (doc_id, token_idx),
as ``gen`` writes them.  A token skipped by everyone keeps its place in the
text, with no reading time: the predictors score the whole text, so its
neighbours condition on it, and the analysis then drops it and counts
it.  A participant with two rows for one token, or participants who
disagree on a token's text or ``sentence_id``, reject the corpus.

Synthetic corpora draw documents from an autoregressive unit model as a
sequence of independently sampled sentences, then generate reading
times from an affine model over the token's predictor values plus
Gaussian noise.  The generating coefficients, noise level, and seed are
returned as a sidecar record so recovery can be checked downstream.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .choices import check_noise_sd
from .errors import ConfigError, DegenerateError, FormatError
from .files import read_blocks, write_atomic
from .lm import AutoregressiveLM, walk
from .seeding import named_rng

CORPUS_HEADER = (
    "participant",
    "doc_id",
    "sentence_id",
    "token_idx",
    "token",
    "rt_ms",
    "skipped",
)

# fraction of malformed rows beyond which a corpus file is rejected
MALFORMED_LIMIT = 0.05
# rt_ms of a skipped row that records no reading time
MISSING_RT = ("NA", "")


@dataclass(frozen=True, eq=False)
class TokenTable:
    """Token rows as numpy columns of one length.

    ``doc`` and ``token`` are integer codes into ``doc_ids`` and
    ``types``, and ``participant`` (where present) into
    ``participants``; ``token_idx`` and ``sentence_id`` are integers.
    The other columns depend on the stage: ``rt_ms`` and ``skipped`` per
    reading, ``rt_ms`` (NaN where nobody read the token) and
    ``n_readers`` per token, and the predictor columns (NaN spillover at
    document starts) once scored.  ``doc_ids`` is sorted, so ordering by
    doc code orders by doc_id.
    """

    columns: dict[str, np.ndarray]
    doc_ids: tuple[str, ...]
    types: tuple[str, ...]
    participants: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.columns["doc"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, rows: np.ndarray) -> "TokenTable":
        """The table restricted to ``rows`` (indices, a boolean mask or a slice)."""
        cols = {name: col[rows] for name, col in self.columns.items()}
        return TokenTable(cols, self.doc_ids, self.types, self.participants)

    def decode(self, name: str) -> list[str]:
        """A code column (``doc``, ``token``, ``participant``) as strings."""
        labels = {"doc": self.doc_ids, "token": self.types, "participant": self.participants}
        return np.asarray(labels[name], dtype=object)[self.columns[name]].tolist()


def label_codes(values: Sequence[str], labels: Sequence[str]) -> np.ndarray:
    """Each value's code in ``labels``; -1 where it is not among them."""
    index = {label: code for code, label in enumerate(labels)}
    return np.array([index.get(v, -1) for v in values], dtype=np.int64)


# how the bulk reader converts each column, by header name
FIELD_KINDS = {
    "participant": "label",
    "doc_id": "label",
    "token": "label",
    "sentence_id": "index",
    "token_idx": "index",
    "rt_ms": "value",
    "surprisal": "value",
    "frequency": "value",
    "skipped": "flag",
}
# the largest index a table holds (int64), and the longest the bulk
# reader converts (18 digits always fit)
MAX_INDEX = int(np.iinfo(np.int64).max)
MAX_INDEX_DIGITS = 18
# the longest field the bulk reader converts; longer ones go line by line
MAX_FIELD_BYTES = 255
# rows ``write_tsv`` formats at once: its strings stay a few MB
WRITE_CHUNK_ROWS = 8192
# how ``write_tsv`` spells each kind of number (FIELD_KINDS)
_FORMAT = {"index": str, "flag": "01".__getitem__, "value": lambda v: "NA" if v != v else repr(v)}
# a value's plain spelling, digits[.digits][(e|E)[+|-]digits], as a
# finite automaton: byte classes (digit, point, e, sign, other) and
# each state's successor per class, 7 rejecting and 1, 3 and 6
# accepting; flattened, with every state held times 5, so that
# state + class indexes the table
_CHAR_CLASS = np.full(256, 4, dtype=np.uint8)
_CHAR_CLASS[[*range(48, 58), 46, 69, 101, 43, 45]] = [0] * 10 + [1, 2, 2, 3, 3]
_DECIMAL_NEXT = np.array(
    [
        [1, 7, 7, 7, 7],  # start
        [1, 2, 4, 7, 7],  # integer digits
        [3, 7, 7, 7, 7],  # point
        [3, 7, 4, 7, 7],  # fraction digits
        [6, 7, 7, 5, 7],  # e
        [6, 7, 7, 7, 7],  # exponent sign
        [6, 7, 7, 7, 7],  # exponent digits
        [7, 7, 7, 7, 7],  # rejected
    ],
    dtype=np.uint8,
).ravel() * np.uint8(5)
_DECIMAL_ACCEPT = (5 * 1, 5 * 3, 5 * 6)


def read_tsv(
    file, header: tuple[str, ...], parse_line: Callable[[str], tuple | str], digest=None
) -> tuple[TokenTable, np.ndarray, list[tuple[int, str]]]:
    """Read a TSV file with a fixed header into a TokenTable.

    Returns the table of the well-formed rows in file order, their line
    numbers, and the (line, reason) pairs of the malformed lines.
    ``file`` is a path, or a binary file open for reading (named by its
    ``name``); it is read by ``read_blocks`` (``digest`` goes with it),
    and blank lines are skipped.  A wrong header is reported once the
    whole file is checked, so invalid UTF-8 anywhere comes first.
    ``parse_line`` holds the rules: given one line, it returns the row's
    values in header order, or the reason the line is malformed.

    The body is converted a block at a time, as ``read_blocks`` hands
    it on, a column at a time (kinds in FIELD_KINDS), and only the lines
    with a field not in its plain form go through ``parse_line``.  Plain
    forms, each of 1 to MAX_FIELD_BYTES bytes: any label; an index of at
    most MAX_INDEX_DIGITS ASCII digits; a value spelled
    ``digits[.digits][(e|E)[+|-]digits]`` that is finite; a flag of 0
    or 1.  ``parse_line`` accepts every plain row with the same values;
    a row it accepts fills its line's slot among the header-width lines.
    Labels are coded in order of first appearance, doc ids sorted.
    """
    # a path is opened and closed here; an open file is left open
    with nullcontext(file) if hasattr(file, "read") else open(file, "rb") as handle:
        blocks = read_blocks(handle, digest)
        first = next(blocks, b"")
        head_end = first.find(b"\n")
        if head_end < 0:
            head_end = len(first)
        head = first[:head_end].decode("utf-8")
        if tuple(head.split("\t")) != header:
            for _ in blocks:  # the rest of the file is checked first
                pass
            raise FormatError(
                f"{handle.name}: header must be {chr(9).join(header)!r}, got {head!r}"
            )
        kinds = [FIELD_KINDS[name] for name in header]
        # per label column, its labels and their codes, in order of first appearance
        labels = {name: {} for name, kind in zip(header, kinds) if kind == "label"}
        pieces: dict[str, list[np.ndarray]] = {name: [] for name in header}
        row_lines: list[np.ndarray] = []
        malformed: list[tuple[int, str]] = []
        first_line = 2
        block = first[head_end + 1:]
        del first
        while block is not None:
            n_lines, lines, columns, bad = _read_block(block, kinds, parse_line)
            row_lines.append(lines + first_line)
            malformed += [(first_line + i, why) for i, why in bad]
            for name, column in zip(header, columns):
                if name in labels:
                    column = _merge_labels(*column, labels[name])
                pieces[name].append(column)
            first_line += n_lines
            block = next(blocks, None)

    def column(name: str) -> np.ndarray:
        """The column, assembled once from its blocks, which it releases."""
        return np.concatenate(pieces.pop(name))

    # doc ids sorted, so ordering by doc code orders by doc_id
    doc_ids = sorted(labels["doc_id"])
    sorted_code = np.empty(len(doc_ids), dtype=np.int64)
    sorted_code[[labels["doc_id"][d] for d in doc_ids]] = np.arange(len(doc_ids))
    cols = {"doc": sorted_code[column("doc_id")], "token": column("token")}
    cols.update((name, column(name)) for name in header if name not in labels)
    participants: tuple[str, ...] = ()
    if "participant" in labels:
        cols["participant"], participants = column("participant"), tuple(labels["participant"])
    table = TokenTable(cols, tuple(doc_ids), tuple(labels["token"]), participants)
    return table, np.concatenate(row_lines), malformed


def _read_block(block: bytes, kinds, parse_line):
    """The lines of a block (each ends in a newline but the last): their
    newlines' count, the (0-based) lines of its rows in order, the rows'
    columns (a label column as its codes and the labels they index), and
    the malformed (line, reason) pairs."""
    buf = np.frombuffer(block, dtype=np.uint8)
    end = len(block) - block.endswith(b"\n")
    # a field ends at a tab or at the newline ending its line; the one
    # that ends at bounds[c] starts after bounds[c - 1], bounds[0] is the
    # newline before the block, and the last line ends at ``end``
    is_bound = np.ones(end + 2, dtype=bool)
    np.equal(buf[:end], 9, out=is_bound[1:-1])
    is_bound[1:-1] |= buf[:end] == 10
    bounds = np.flatnonzero(is_bound)
    del is_bound
    bounds -= 1
    line_end = np.append(np.flatnonzero(buf[bounds[1:-1]] == 10), bounds.size - 2) + 1
    n_fields = np.diff(line_end, prepend=0)

    def fields(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first = bounds[ends - 1] + 1
        return first, bounds[ends] - first

    lines = np.flatnonzero(n_fields == len(kinds))
    first_end = line_end[lines] - (len(kinds) - 1)
    plain = np.ones(lines.size, dtype=bool)
    values = []
    for j, kind in enumerate(kinds):
        ok, col = _convert(kind, buf, *fields(first_end + j))
        plain &= ok
        values.append(col)

    # the other lines that are not blank, through the rules
    slow = (n_fields > 1) | (fields(line_end)[1] > 0)
    slow[lines[plain]] = False
    line_start = bounds[line_end - n_fields] + 1
    accepted: list[int] = []
    rows: list[tuple] = []
    malformed: list[tuple[int, str]] = []
    for i in np.flatnonzero(slow).tolist():
        row = parse_line(block[line_start[i]:bounds[line_end[i]]].decode("utf-8"))
        if isinstance(row, str):
            malformed.append((i, row))
        elif n_fields[i] != len(kinds):  # a line of another width has no slot
            raise ValueError(
                f"the line rules accepted a line of {n_fields[i]} fields; "
                f"the header has {len(kinds)}"
            )
        else:
            accepted.append(i)
            rows.append(row)
    # each accepted row fills its line's slot
    slots = np.searchsorted(lines, accepted)
    keep = plain.copy()
    keep[slots] = True
    if keep.all():  # the columns are kept whole, not copied
        keep = slice(None)
    columns = []
    for j, kind in enumerate(kinds):
        rest = [row[j] for row in rows]
        if kind == "label":
            codes = np.empty(lines.size, dtype=np.int64)
            codes[plain], found = _code_fields(buf, *fields(first_end[plain] + j))
            index = dict(zip(found, range(len(found))))
            codes[slots] = [index.setdefault(label, len(index)) for label in rest]
            columns.append((codes[keep], list(index)))
        else:
            values[j][slots] = rest
            columns.append(values[j][keep])
    return line_end.size - (end == len(block)), lines[keep], columns, malformed


def _convert(kind: str, buf: np.ndarray, start: np.ndarray, length: np.ndarray):
    """Which fields are plain, and the values of the plain ones (labels
    are coded later, for the plain rows only)."""
    ok = (length > 0) & (length <= MAX_FIELD_BYTES)
    if kind == "label":
        return ok, None
    if kind == "flag":  # a field that is empty may start at the end of the data
        byte = buf.take(start, mode="clip")
        return (length == 1) & ((byte == 48) | (byte == 49)), byte == 49
    if kind == "index":
        ok &= length <= MAX_INDEX_DIGITS
    candidates = np.flatnonzero(ok)
    out = np.zeros(start.size, dtype=np.int64 if kind == "index" else float)
    for rows, chars in _by_length(buf, start[candidates], length[candidates]):
        rows = candidates[rows]
        if kind == "index":
            digits = chars - np.uint8(48)
            good = (digits < 10).all(axis=1)
            value = np.zeros(rows.size, dtype=np.int64)
            for digit in digits.T:
                value = value * 10 + digit
            out[rows] = value
        else:
            state = np.zeros(rows.size, dtype=np.uint8)
            for byte_class in _CHAR_CLASS[chars.T]:
                state = _DECIMAL_NEXT.take(state + byte_class)
            good = np.isin(state, _DECIMAL_ACCEPT)
            # numpy reads bytes to float as float() does, bit for bit
            with np.errstate(over="ignore"):
                parsed = chars[good].view(f"S{chars.shape[1]}").ravel().astype(float)
            out[rows[good]] = parsed
            good[good] = np.isfinite(parsed)
        ok[rows] = good
    return ok, out


def _by_length(buf: np.ndarray, start: np.ndarray, length: np.ndarray):
    """The fields grouped by byte length (at most MAX_FIELD_BYTES): per
    nonzero length, the fields' positions in ``start`` and their bytes
    as an (n, length) uint8 array."""
    for ell in np.flatnonzero(np.bincount(length)).tolist():
        if ell:
            rows = np.flatnonzero(length == ell)
            yield rows, sliding_window_view(buf, ell)[start[rows]]


def _code_fields(buf, start, length) -> tuple[np.ndarray, list[str]]:
    """Codes of the fields, into the distinct labels they spell."""
    codes = np.empty(start.size, dtype=np.int64)
    labels: list[str] = []
    for rows, chars in _by_length(buf, start, length):
        ell = chars.shape[1]
        if ell <= 8:  # one integer key per field: it sorts faster than bytes
            chars = np.pad(chars, ((0, 0), (0, 8 - ell)))
        keys = chars.view(np.uint64 if ell <= 8 else f"V{ell}").ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        raw, size = distinct.tobytes(), distinct.itemsize
        codes[rows] = inverse.ravel() + len(labels)
        labels += [raw[i:i + ell].decode("utf-8") for i in range(0, len(raw), size)]
    return codes, labels


def _merge_labels(codes: np.ndarray, found: list[str], index: dict[str, int]) -> np.ndarray:
    """A block's codes into ``found`` as codes into ``index`` (label to
    code), which takes the block's new labels in order of first
    appearance."""
    present, first = np.unique(codes, return_index=True)
    merged = np.empty(len(found), dtype=np.int64)
    for code in present[np.argsort(first)].tolist():
        merged[code] = index.setdefault(found[code], len(index))
    return merged[codes]


def corpus_row(line: str) -> tuple | str:
    """One corpus line as a (participant, doc_id, sentence_id, token_idx,
    token, rt_ms, skipped) row, or the reason it is malformed.

    A skipped row may give its ``rt_ms`` as ``NA`` or leave it empty; it
    is read with ``rt_ms`` NaN.  A read row needs a reading time.
    """
    parts = line.split("\t")
    if len(parts) != len(CORPUS_HEADER):
        return f"expected {len(CORPUS_HEADER)} fields"
    participant, doc_id, sent_s, idx_s, token, rt_s, skip_s = parts
    try:
        sentence_id, token_idx = int(sent_s), int(idx_s)
        rt_ms = math.nan if skip_s == "1" and rt_s in MISSING_RT else float(rt_s)
    except ValueError:
        return "non-numeric sentence_id/token_idx/rt_ms"
    if token_idx < 0 or sentence_id < 0:
        return "negative index"
    if max(token_idx, sentence_id) > MAX_INDEX:
        return "index out of range"
    if not 0.0 <= rt_ms < math.inf and rt_s not in MISSING_RT:
        return f"rt_ms {rt_s!r} not finite and >= 0"
    if skip_s not in ("0", "1"):
        return f"skipped must be 0 or 1, got {skip_s!r}"
    if not token:
        return "empty token"
    return participant, doc_id, sentence_id, token_idx, token, rt_ms, skip_s == "1"


def malformed_examples(malformed: Sequence[tuple[int, str]]) -> str:
    """The first five malformed lines, as ``line L: reason`` entries."""
    return "; ".join(f"line {ln}: {why}" for ln, why in malformed[:5])


def parse_corpus(file, digest=None) -> tuple[TokenTable, list[tuple[int, str]]]:
    """Read a corpus TSV (as ``read_tsv`` reads ``file``, ``digest`` too);
    returns (rows, malformed (line, reason) pairs).

    Individual bad rows (by ``corpus_row``) are tolerated and reported;
    more than MALFORMED_LIMIT of the data rows being bad rejects the file.
    """
    rows, _, malformed = read_tsv(file, CORPUS_HEADER, corpus_row, digest)
    path = getattr(file, "name", file)
    n_data_lines = len(rows) + len(malformed)
    if n_data_lines == 0:
        raise FormatError(f"{path}: corpus has no data rows")
    if len(malformed) > MALFORMED_LIMIT * n_data_lines:
        raise FormatError(
            f"{path}: {len(malformed)} of {n_data_lines} rows malformed "
            f"(limit {MALFORMED_LIMIT:.0%}): {malformed_examples(malformed)}"
        )
    return rows, malformed


def write_tsv(table: TokenTable, path, header: tuple[str, ...]) -> str:
    """Write the table's ``header`` columns as a TSV file that ``read_tsv``
    reads back, WRITE_CHUNK_ROWS rows at a time; returns its SHA-256.
    Each column is written by its kind in FIELD_KINDS: a label as its
    text, an index in decimal digits, a value in its shortest
    round-tripping form (``repr``) and NaN as ``NA``, a flag as 0 or 1."""

    def fields(part: TokenTable, name: str) -> list[str]:
        kind = FIELD_KINDS[name]
        if kind == "label":
            return part.decode("doc" if name == "doc_id" else name)
        if kind == "value":
            return list(map(_FORMAT[kind], part[name].tolist()))
        # an index or flag repeats: each distinct value is spelled once
        # (a return_* flag keeps np.unique from loading numpy.ma)
        distinct, inverse = np.unique(part[name], return_inverse=True)
        spelled = np.array(list(map(_FORMAT[kind], distinct.tolist())), dtype=object)
        return spelled[inverse.ravel()].tolist()

    def pieces():
        yield "\t".join(header) + "\n"
        for start in range(0, len(table), WRITE_CHUNK_ROWS):
            part = table.take(slice(start, start + WRITE_CHUNK_ROWS))
            yield "\n".join(map("\t".join, zip(*(fields(part, n) for n in header)))) + "\n"

    return write_atomic(path, pieces())


def write_corpus_tsv(rows: TokenTable, path) -> str:
    return write_tsv(rows, path, CORPUS_HEADER)


def key_order(table: TokenTable) -> np.ndarray | slice:
    """The stable order of the rows by (doc, token_idx): the whole-table
    slice when they already ascend by it, so that each column is read in
    place, and else the sorting permutation."""
    doc, idx = table["doc"], table["token_idx"]
    if np.all((doc[1:] > doc[:-1]) | ((doc[1:] == doc[:-1]) & (idx[1:] >= idx[:-1]))):
        return slice(None)
    return np.lexsort((idx, doc))


def aggregate_participants(rows: TokenTable) -> TokenTable:
    """Mean reading time per token over participants who read it.

    Returns one row per (doc_id, token_idx), in that order.  A token
    skipped by every participant keeps its row with ``rt_ms`` NaN and
    ``n_readers`` 0.  Each participant reads a token at most once, the
    token text and ``sentence_id`` must agree across participants, and
    ``token_idx`` must run without gaps within a document.  Readings
    that already ascend by (doc_id, token_idx), as ``gen`` writes them,
    are read in place (``key_order``); others are sorted first.
    """
    order = key_order(rows)  # stable: file order within a token
    doc = rows["doc"][order]
    idx = rows["token_idx"][order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (doc[1:] != doc[:-1]) | (idx[1:] != idx[:-1])
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1

    def where(g: int) -> str:
        return f"({rows.doc_ids[doc[starts[g]]]!r}, {int(idx[starts[g]])})"

    token_doc, token_idx = doc[starts], idx[starts]
    gap = np.flatnonzero((token_doc[1:] == token_doc[:-1]) & (token_idx[1:] != token_idx[:-1] + 1))
    if gap.size:
        g = int(gap[0])
        raise FormatError(
            f"document {rows.doc_ids[token_doc[g]]!r} skips from "
            f"token_idx {int(token_idx[g])} to {int(token_idx[g + 1])}"
        )

    n_participants = max(len(rows.participants), 1)
    pairs = np.sort(group * n_participants + rows["participant"][order])
    dup = np.flatnonzero(pairs[1:] == pairs[:-1])
    if dup.size:
        g, p = divmod(int(pairs[dup[0]]), n_participants)
        raise FormatError(
            f"participant {rows.participants[p]!r} has more than one row at {where(g)}"
        )
    for name, what in (("token", "token text"), ("sentence_id", "sentence_id")):
        values = rows[name][order]
        bad = np.flatnonzero(values != values[starts][group])
        if bad.size:
            g = int(group[bad[0]])
            seen = set(values[group == g].tolist())
            shown = sorted(rows.types[c] for c in seen) if name == "token" else sorted(seen)
            raise FormatError(
                f"{what} disagrees across participants at {where(g)}: {shown!r}"
            )

    read = ~rows["skipped"][order]
    rt_read = rows["rt_ms"][order][read]
    n_readers = np.bincount(group[read], minlength=starts.size)
    offset = np.cumsum(n_readers) - n_readers
    rt_ms = np.full(starts.size, math.nan)
    # np.mean over a bucket of equal-sized groups sums each row like
    # np.mean over that group alone (pairwise from 8 terms on), so the
    # means keep the bits of a per-token mean over the reads in file order
    for count in np.flatnonzero(np.bincount(n_readers[n_readers > 0])).tolist():
        groups = np.flatnonzero(n_readers == count)
        block = rt_read[offset[groups, None] + np.arange(count)]
        rt_ms[groups] = np.mean(block, axis=1)
    cols = {
        "doc": token_doc,
        "token_idx": token_idx,
        "sentence_id": rows["sentence_id"][order][starts],
        "token": rows["token"][order][starts],
        "rt_ms": rt_ms,
        "n_readers": n_readers,
    }
    return TokenTable(cols, rows.doc_ids, rows.types)


def standardize_stats(values: np.ndarray, label: str = "column") -> tuple[float, float]:
    """The mean and sample (n-1) standard deviation of a column."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise DegenerateError(f"{label}: need at least two values to standardize")
    sd = float(np.std(v, ddof=1))
    if sd == 0.0 or not math.isfinite(sd):
        raise DegenerateError(f"{label}: zero or non-finite variance")
    return float(np.mean(v)), sd


@dataclass(frozen=True)
class FoldAssignment:
    """Balanced splits of row indices, token- or document-level."""

    n_rows: int
    k: int
    seed: int
    mode: str
    fold_of_row: np.ndarray = field(repr=False)

    def test_idx(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of_row == fold)[0]

    def train_idx(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of_row != fold)[0]


def kfold(
    n_rows: int,
    k: int,
    seed: int,
    doc_ids: np.ndarray | Sequence[str] | None = None,
) -> FoldAssignment:
    """Seeded balanced fold assignment: one seeded permutation of the units
    deals them out in turn (``fold = position % k``), so fold sizes in
    units differ by at most one.  The units are the rows (token mode, the
    default) or the distinct ``doc_ids`` (document mode), labels that sort
    as the documents do: doc ids, or their codes in a ``TokenTable``."""
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if n_rows < k:
        raise ConfigError(f"{n_rows} rows cannot fill {k} folds")
    n_units, mode = n_rows, "token"
    if doc_ids is not None:
        if len(doc_ids) != n_rows:
            raise ConfigError("doc_ids must align with rows")
        docs, doc_of_row = np.unique(np.asarray(doc_ids), return_inverse=True)
        n_units, mode = len(docs), "document"
        if n_units < k:
            raise ConfigError(f"{n_units} documents cannot fill {k} folds")
    fold_of_unit = np.empty(n_units, dtype=np.int64)
    fold_of_unit[named_rng(seed, "folds").permutation(n_units)] = np.arange(n_units) % k
    fold_of_row = fold_of_unit if doc_ids is None else fold_of_unit[doc_of_row]
    return FoldAssignment(n_rows=n_rows, k=k, seed=seed, mode=mode, fold_of_row=fold_of_row)


# -- synthesis --------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticCorpus:
    observations: TokenTable
    records: TokenTable  # scored tokens, no reading times joined
    sidecar: dict


def sample_documents(
    lm: AutoregressiveLM, rng: np.random.Generator, n_docs: int, doc_len: int
) -> TokenTable:
    """Documents ``d0000``, ``d0001``, ... of independent sentences drawn
    from the model, each holding at least ``doc_len`` tokens; a sentence
    with no units is skipped.  Tokens are coded in order of first
    appearance.

    The draws are ``sample_string``'s, one uniform per symbol, eos
    included, sentence after sentence, but taken ``rng.random(n)`` at a
    time and placed by ``walk``.  A block is never longer than the
    fewest draws the document still needs (the units it lacks plus one
    eos), so a document ends with its last block and leaves the stream
    where one draw per symbol leaves it.
    """
    limit = 50 * (doc_len + 1)
    start = lm.index[()]
    symbols: list[int] = []  # unit codes, -1 at each eos
    lengths: list[int] = []
    for _ in range(n_docs):
        begin, units, sentences, state = len(symbols), 0, 0, start
        while True:
            drawn, state = walk(lm, rng.random(max(doc_len - units, 0) + 1).tolist(), state)
            symbols += drawn
            ends = drawn.count(-1)
            sentences += ends
            units += len(drawn) - ends
            if sentences > limit:
                # a document ends only at its last draw, so any sentence
                # past the limit came before that end
                eos = np.flatnonzero(np.array(symbols[begin:]) < 0)
                if np.any(np.diff(eos, prepend=-1)[limit:] == 1):
                    raise ConfigError(
                        "model keeps producing empty sentences; cannot fill documents"
                    )
            if drawn[-1] < 0 and units >= doc_len:
                break
        lengths.append(len(symbols) - begin)

    stream = np.array(symbols, dtype=np.int64)
    is_unit = stream >= 0
    doc = np.repeat(np.arange(n_docs), lengths)[is_unit]
    # each token's sentence in the whole stream, then renumbered from 0
    # within its document over the sentences that hold tokens
    sentence = np.cumsum(~is_unit)[is_unit]
    new = np.ones(sentence.size, dtype=bool)
    new[1:] = sentence[1:] != sentence[:-1]
    sentence = np.cumsum(new) - 1
    doc_start = np.searchsorted(doc, np.arange(n_docs))
    unit = stream[is_unit]
    present, first = np.unique(unit, return_index=True)
    seen = present[np.argsort(first)]
    code = np.empty(len(lm.alphabet.units), dtype=np.int64)
    code[seen] = np.arange(seen.size)
    width = max(4, len(str(n_docs)))
    cols = {
        "doc": doc,
        "token": code[unit],
        "token_idx": np.arange(doc.size) - doc_start[doc],
        "sentence_id": sentence - sentence[doc_start][doc],
    }
    doc_ids = tuple(f"d{d:0{width}d}" for d in range(n_docs))
    return TokenTable(cols, doc_ids, tuple(lm.alphabet.units[a] for a in seen.tolist()))


def generate_synthetic(
    lm: AutoregressiveLM,
    true_coeffs: dict[str, float],
    noise_sd: float,
    n_docs: int,
    doc_len: int,
    seed: int,
    n_participants: int = 1,
) -> SyntheticCorpus:
    """Sample documents from the model and attach affine-model times.

    Each document concatenates independent sentences until it holds at
    least ``doc_len`` tokens.  The clean reading time of a token is
    intercept plus the dot product of ``true_coeffs`` with its predictor
    values (absent spillover values contribute zero); every participant
    reads every token with independent Gaussian noise.
    """
    from .predictors import PREDICTOR_NAMES, build_predictor_table

    if min(n_docs, doc_len, n_participants) < 1:
        raise ConfigError("n_docs, doc_len and n_participants must be positive")
    check_noise_sd(noise_sd)
    allowed = {"intercept", *PREDICTOR_NAMES}
    unknown = sorted(set(true_coeffs) - allowed)
    if unknown:
        raise ConfigError(f"unknown coefficient names: {unknown}")

    rng = named_rng(seed, "corpus")
    tokens = sample_documents(lm, rng, n_docs, doc_len)
    records = build_predictor_table(tokens, lm)
    clean = np.full(len(records), float(true_coeffs.get("intercept", 0.0)))
    for name, beta in true_coeffs.items():
        if name != "intercept":
            values = records[name]
            np.add(clean, float(beta) * values, out=clean, where=~np.isnan(values))

    # one draw in token-major order: the stream of one draw per token
    rt = clean[:, None] + rng.normal(0.0, noise_sd, size=(len(records), n_participants))
    negative = np.flatnonzero(rt.ravel() < 0.0)
    if negative.size:
        row, _ = divmod(int(negative[0]), n_participants)
        raise ConfigError(
            f"generated a negative reading time ({rt.flat[negative[0]]:.3f} ms) at "
            f"({records.doc_ids[records['doc'][row]]!r}, {int(records['token_idx'][row])}); "
            "raise the intercept or lower the noise"
        )
    cols = {
        name: np.repeat(records[name], n_participants)
        for name in ("doc", "token_idx", "sentence_id", "token")
    }
    cols["participant"] = np.tile(np.arange(n_participants), len(records))
    cols["rt_ms"] = rt.ravel()
    cols["skipped"] = np.zeros(rt.size, dtype=bool)
    observations = TokenTable(
        cols,
        records.doc_ids,
        records.types,
        tuple(f"p{p:02d}" for p in range(n_participants)),
    )
    sidecar = {"true_coeffs": dict(true_coeffs), "noise_sd": noise_sd, "seed": seed}
    return SyntheticCorpus(observations=observations, records=records, sidecar=sidecar)
