"""Per-token contextual predictors.

Three information-theoretic predictors (all in nats):

  * surprisal: negative log conditional probability of the token given
    its within-sentence context,
  * frequency: negative log probability under the best context-free
    approximation of the model (or an externally supplied estimate),
  * pmi: their difference, frequency - surprisal, the log ratio of the
    conditional to the context-free probability.

Token length (in characters) rides along as a control.  A predictor
table is built either from an autoregressive model directly or from an
external per-token file, read into a ``TokenTable``; both paths score
every token of the text, read or not, attach spillover copies of the
previous token's values within the same document (NaN at document
starts), and carry the aggregated reading time once joined.  The same
predictors as variables on the exact measure (``surprisal_variable``
and its kin) live in ``hilbert``, so ``oracle`` loads no corpus code.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .corpus import MAX_INDEX, TokenTable, key_order, label_codes, read_tsv, write_tsv
from .errors import CoverageError, DegenerateError, FormatError, SymbolError
# the exact-mode variables live in ``hilbert``; they are bound here too,
# where perfbench's tracer looks them up
from .hilbert import frequency_variable, pmi_variable, surprisal_variable
from .lm import AutoregressiveLM, unigram_minimizer

PREDICTOR_NAMES = (
    "surprisal",
    "frequency",
    "pmi",
    "length",
    "prev_surprisal",
    "prev_frequency",
    "prev_pmi",
    "prev_length",
)

EXTERNAL_HEADER = ("doc_id", "token_idx", "token", "surprisal", "frequency")


# -- external predictor files ------------------------------------------------


def external_row(line: str) -> tuple | str:
    """One predictor line as a (doc_id, token_idx, token, surprisal,
    frequency) row, or the reason it is malformed."""
    parts = line.split("\t")
    if len(parts) != len(EXTERNAL_HEADER):
        return f"expected {len(EXTERNAL_HEADER)} fields"
    doc_id, idx_s, token, surp_s, freq_s = parts
    try:
        token_idx, surp, freq = int(idx_s), float(surp_s), float(freq_s)
    except ValueError:
        return "non-numeric field"
    if token_idx < 0:
        return "negative token_idx"
    if token_idx > MAX_INDEX:
        return "token_idx out of range"
    if not (math.isfinite(surp) and math.isfinite(freq)):
        return "non-finite predictor value"
    if surp < 0.0 or freq < 0.0:
        return "surprisal and frequency must be >= 0 nats"
    return doc_id, token_idx, token, surp, freq


def parse_external_tsv(path, digest=None) -> TokenTable:
    """Read a predictor TSV into a table of per-token estimates, one row
    per (doc_id, token_idx), with columns ``doc``, ``token_idx``,
    ``token``, ``surprisal`` and ``frequency`` (``digest``, if given,
    takes the file's bytes as they are read).  The first malformed line
    (by ``external_row``), or the first row whose token_idx does not
    increase within its document, rejects the file."""
    table, lineno, malformed = read_tsv(path, EXTERNAL_HEADER, external_row, digest)
    errors = malformed[:1]
    # within a document, in file order, the first row not above the one
    # before it; all rows before it increase, so it repeats a key exactly
    # when its token_idx is among theirs
    order = np.lexsort((lineno, table["doc"]))
    doc, idx = table["doc"][order], table["token_idx"][order]
    back = np.flatnonzero((doc[1:] == doc[:-1]) & (idx[1:] <= idx[:-1])) + 1
    if back.size:
        at = back[np.argmin(lineno[order][back])]
        doc_id, token_idx = table.doc_ids[doc[at]], int(idx[at])
        earlier = idx[np.searchsorted(doc, doc[at]):at]
        why = (
            f"duplicate key ({doc_id!r}, {token_idx})"
            if token_idx in earlier
            else f"token_idx must increase within {doc_id!r}"
        )
        errors.append((int(lineno[order][at]), why))
    if errors:
        raise FormatError("{}:{}: {}".format(path, *min(errors)))
    if not len(table):
        raise FormatError(f"{path}: no predictor rows found")
    return table


def write_external_tsv(records: TokenTable, path) -> str:
    return write_tsv(records, path, EXTERNAL_HEADER)


# -- table construction -------------------------------------------------------


def build_predictor_table(
    tokens: TokenTable, source: AutoregressiveLM | TokenTable
) -> TokenTable:
    """Score every token of the text and attach spillover copies.

    Rows come out in (doc_id, token_idx) order, with the input's columns
    (reading times included) carried along.  With a model source,
    surprisal conditions on the preceding tokens of the same sentence
    (sentences are the model's strings) and frequency comes from the
    model's context-free minimizer.  With an external source, values are
    joined by (doc_id, token_idx); the token text must agree.
    Unresolvable tokens raise a coverage error naming them.
    """
    order = key_order(tokens)
    table = tokens if isinstance(order, slice) else tokens.take(order)
    if isinstance(source, AutoregressiveLM):
        surp, freq = _score_lm(table, source)
    elif isinstance(source, TokenTable):
        surp, freq = _join_external(table, source)
    else:
        raise FormatError(f"unsupported predictor source: {type(source).__name__}")
    values = {
        "surprisal": surp,
        "frequency": freq,
        "pmi": freq - surp,
        "length": np.array([float(len(t)) for t in table.types])[table["token"]],
    }
    # spillover: previous token in the same document, regardless of sentence
    doc_start = np.ones(len(table), dtype=bool)
    doc_start[1:] = table["doc"][1:] != table["doc"][:-1]
    for name in ("surprisal", "frequency", "pmi", "length"):
        prev = np.roll(values[name], 1)
        prev[doc_start] = math.nan
        values[f"prev_{name}"] = prev
    return TokenTable({**table.columns, **values}, table.doc_ids, table.types)


def _score_lm(table: TokenTable, lm: AutoregressiveLM) -> tuple[np.ndarray, np.ndarray]:
    """Surprisal and frequency of each row, by gathers over small tables.

    A row's state is the model's start state at its sentence's first
    token and otherwise the successor (``lm.succ``) of the row before
    it, so the walk takes one vectorized step per sentence position.
    The logs are taken of the (state, unit) cells, not of the rows.
    """
    units = lm.alphabet.units
    unit_col = {u: a for a, u in enumerate(units)}
    present = [table.types[c] for c in np.flatnonzero(np.bincount(table["token"])).tolist()]
    bad_vocab = sorted(set(present) - set(units))
    if bad_vocab:
        raise CoverageError(
            f"{len(bad_vocab)} corpus token types are outside the model "
            f"alphabet: {bad_vocab[:10]!r}",
            missing=bad_vocab,
        )
    unit = np.array([unit_col.get(t, -1) for t in table.types], dtype=np.int64)
    unit = unit[table["token"]]

    rows = np.arange(len(table))
    first = np.ones(len(table), dtype=bool)
    first[1:] = (table["doc"][1:] != table["doc"][:-1]) | (
        table["sentence_id"][1:] != table["sentence_id"][:-1]
    )
    sentence_start = np.maximum.accumulate(np.where(first, rows, 0))
    pos = rows - sentence_start
    # a row's state is undefined (-1) only after a zero-probability row
    # of the same sentence, which comes first and raises below
    state = np.full(len(table), lm.index[()], dtype=np.int64)
    for d in range(1, int(pos.max(initial=0)) + 1):
        at = np.flatnonzero(pos == d)
        state[at] = lm.succ[state[at - 1], unit[at - 1]]

    neglog = np.array(
        [[-math.log(p) if p > 0.0 else math.inf for p in row] for row in lm.emit.tolist()]
    )
    surp = neglog[state, unit]
    if np.isinf(surp).any():
        i = int(np.argmax(np.isinf(surp)))
        context = tuple(table.types[c] for c in table["token"][sentence_start[i]:i].tolist())
        raise DegenerateError(
            f"unit {units[unit[i]]!r} has zero conditional probability after {context!r}"
        )

    q = unigram_minimizer(lm)
    freq_of_unit = np.full(len(units), math.nan)
    for a in np.flatnonzero(np.bincount(unit)).tolist():
        p = q.prob(units[a])
        if p <= 0.0:
            raise SymbolError(f"unit {units[a]!r} has no context-free probability")
        freq_of_unit[a] = -math.log(p)
    return surp, freq_of_unit[unit]


def _join_external(table: TokenTable, ext: TokenTable) -> tuple[np.ndarray, np.ndarray]:
    """Surprisal and frequency of each row, aligned by key."""
    # the external doc and token codes in the table's code spaces, -1
    # where the table lacks the label
    doc = label_codes(ext.doc_ids, table.doc_ids)[ext["doc"]]
    token = label_codes(ext.types, table.types)[ext["token"]]
    # (doc, rank of token_idx among both tables' values) as one integer
    _, rank = np.unique(np.concatenate([ext["token_idx"], table["token_idx"]]),
                        return_inverse=True)
    width = int(rank.max(initial=0)) + 1
    ext_key = doc * width + rank[:len(ext)]
    key = table["doc"] * width + rank[len(ext):]
    by_key = np.argsort(ext_key)
    at = by_key[np.searchsorted(ext_key, key, sorter=by_key).clip(max=len(ext) - 1)]
    missing = np.flatnonzero((ext_key[at] != key) | (token[at] != table["token"]))
    if missing.size:
        rows = table.take(missing)
        shown = list(zip(rows.decode("doc"), rows["token_idx"].tolist(), rows.decode("token")))
        listed = ", ".join(f"({d!r}, {i}, {tok!r})" for d, i, tok in shown[:10])
        raise CoverageError(
            f"{len(shown)} corpus tokens have no matching external "
            f"predictor row: {listed}",
            missing=shown,
        )
    return ext["surprisal"][at], ext["frequency"][at]


def table_columns(records: TokenTable, names: Sequence[str]) -> dict[str, np.ndarray]:
    """Named columns as float arrays; absent spillover values are NaN."""
    cols = {}
    for name in names:
        if name not in PREDICTOR_NAMES and name != "rt_ms":
            raise FormatError(f"unknown predictor column {name!r}")
        cols[name] = np.array(records[name], dtype=float)
    return cols
