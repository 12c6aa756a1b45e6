"""Per-token contextual predictors and their unit-level definitions.

Three information-theoretic predictors (all in nats):

  * surprisal: negative log conditional probability of the token given
    its within-sentence context,
  * frequency: negative log probability under the best context-free
    approximation of the model (or an externally supplied estimate),
  * pmi: their difference, frequency - surprisal, the log ratio of the
    conditional to the context-free probability.

Token length (in characters) rides along as a control.  A predictor
table is built either from an autoregressive model directly or from an
external per-token file; both paths also attach spillover copies of the
previous token's values within the same document (absent at document
starts) and carry the aggregated reading time once joined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .corpus import AggregatedToken
from .errors import CoverageError, DegenerateError, FormatError, SymbolError
from .hilbert import MeasureTable, RandomVariableTable
from .lm import AutoregressiveLM, UnigramLM, conditional, unigram_minimizer

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


@dataclass(frozen=True)
class PredictorRecord:
    """Predictor values for one token occurrence."""

    doc_id: str
    token_idx: int
    token: str
    surprisal: float
    frequency: float
    pmi: float
    length: float
    sentence_id: int = 0
    prev_surprisal: float | None = None
    prev_frequency: float | None = None
    prev_pmi: float | None = None
    prev_length: float | None = None
    rt_ms: float | None = None

    @property
    def context_id(self) -> tuple[str, int]:
        return (self.doc_id, self.token_idx)


def surprisal(lm: AutoregressiveLM, context: Iterable[str], unit: str) -> float:
    """Negative log conditional probability of the unit after the context."""
    p = conditional(lm, context, unit)
    if p <= 0.0:
        raise DegenerateError(
            f"unit {unit!r} has zero conditional probability after {tuple(context)!r}"
        )
    return -math.log(p)


def frequency(q: UnigramLM, unit: str) -> float:
    """Negative log probability under the context-free distribution."""
    p = q.prob(unit)
    if p <= 0.0:
        raise SymbolError(f"unit {unit!r} has no context-free probability")
    return -math.log(p)


def pmi(lm: AutoregressiveLM, q: UnigramLM, context: Iterable[str], unit: str) -> float:
    """frequency minus surprisal; positive when context helps the unit."""
    return frequency(q, unit) - surprisal(lm, context, unit)


# -- external predictor files ------------------------------------------------


@dataclass(frozen=True)
class ExternalPredictorFile:
    """Parsed per-token predictor estimates keyed by (doc_id, token_idx)."""

    rows: dict[tuple[str, int], tuple[str, float, float]]

    def lookup(self, doc_id: str, token_idx: int):
        return self.rows.get((doc_id, token_idx))


def parse_external_tsv(path) -> ExternalPredictorFile:
    rows: dict[tuple[str, int], tuple[str, float, float]] = {}
    last_idx: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split("\t")) != EXTERNAL_HEADER:
            raise FormatError(
                f"{path}: header must be {chr(9).join(EXTERNAL_HEADER)!r}, got {header!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(EXTERNAL_HEADER):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(EXTERNAL_HEADER)} fields"
                )
            doc_id, idx_s, token, surp_s, freq_s = parts
            try:
                token_idx = int(idx_s)
                surp = float(surp_s)
                freq = float(freq_s)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric field") from None
            if token_idx < 0:
                raise FormatError(f"{path}:{lineno}: negative token_idx")
            if not (math.isfinite(surp) and math.isfinite(freq)):
                raise FormatError(f"{path}:{lineno}: non-finite predictor value")
            if surp < 0.0 or freq < 0.0:
                raise FormatError(
                    f"{path}:{lineno}: surprisal and frequency must be >= 0 nats"
                )
            key = (doc_id, token_idx)
            if key in rows:
                raise FormatError(
                    f"{path}:{lineno}: duplicate key ({doc_id!r}, {token_idx})"
                )
            if doc_id in last_idx and token_idx <= last_idx[doc_id]:
                raise FormatError(
                    f"{path}:{lineno}: token_idx must increase within {doc_id!r}"
                )
            last_idx[doc_id] = token_idx
            rows[key] = (token, surp, freq)
    if not rows:
        raise FormatError(f"{path}: no predictor rows found")
    return ExternalPredictorFile(rows=rows)


def write_external_tsv(records: Sequence[PredictorRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(EXTERNAL_HEADER) + "\n")
        for r in records:
            fh.write(
                f"{r.doc_id}\t{r.token_idx}\t{r.token}\t{r.surprisal!r}\t{r.frequency!r}\n"
            )


# -- table construction -------------------------------------------------------


def build_predictor_table(
    tokens: Sequence[AggregatedToken],
    source: AutoregressiveLM | ExternalPredictorFile,
) -> list[PredictorRecord]:
    """Score every corpus token and attach spillover and reading times.

    With a model source, surprisal conditions on the preceding tokens of
    the same sentence (sentences are the model's strings) and frequency
    comes from the model's context-free minimizer.  With an external
    source, values are joined by (doc_id, token_idx); the token text
    must agree.  Unresolvable tokens raise a coverage error naming them.
    """
    ordered = sorted(tokens, key=lambda t: (t.doc_id, t.token_idx))
    records: list[PredictorRecord] = []
    missing: list[tuple] = []

    if isinstance(source, AutoregressiveLM):
        lm = source
        q = unigram_minimizer(lm)
        known = set(lm.alphabet.units)
        bad_vocab = sorted({t.token for t in ordered} - known)
        if bad_vocab:
            raise CoverageError(
                f"{len(bad_vocab)} corpus token types are outside the model "
                f"alphabet: {bad_vocab[:10]!r}",
                missing=bad_vocab,
            )
        sent_context: list[str] = []
        prev_key: tuple[str, int] | None = None
        for t in ordered:
            if prev_key != (t.doc_id, t.sentence_id):
                sent_context = []
                prev_key = (t.doc_id, t.sentence_id)
            surp = surprisal(lm, sent_context, t.token)
            freq = frequency(q, t.token)
            records.append(
                PredictorRecord(
                    doc_id=t.doc_id,
                    token_idx=t.token_idx,
                    token=t.token,
                    surprisal=surp,
                    frequency=freq,
                    pmi=freq - surp,
                    length=float(len(t.token)),
                    sentence_id=t.sentence_id,
                    rt_ms=t.rt_ms,
                )
            )
            sent_context.append(t.token)
    elif isinstance(source, ExternalPredictorFile):
        for t in ordered:
            hit = source.lookup(t.doc_id, t.token_idx)
            if hit is None or hit[0] != t.token:
                missing.append((t.doc_id, t.token_idx, t.token))
                continue
            _, surp, freq = hit
            records.append(
                PredictorRecord(
                    doc_id=t.doc_id,
                    token_idx=t.token_idx,
                    token=t.token,
                    surprisal=surp,
                    frequency=freq,
                    pmi=freq - surp,
                    length=float(len(t.token)),
                    sentence_id=t.sentence_id,
                    rt_ms=t.rt_ms,
                )
            )
        if missing:
            shown = ", ".join(f"({d!r}, {i}, {tok!r})" for d, i, tok in missing[:10])
            raise CoverageError(
                f"{len(missing)} corpus tokens have no matching external "
                f"predictor row: {shown}",
                missing=missing,
            )
    else:
        raise FormatError(f"unsupported predictor source: {type(source).__name__}")

    # spillover: previous token in the same document, regardless of sentence
    out: list[PredictorRecord] = []
    prev: PredictorRecord | None = None
    for rec in records:
        if prev is not None and prev.doc_id == rec.doc_id:
            rec = replace(
                rec,
                prev_surprisal=prev.surprisal,
                prev_frequency=prev.frequency,
                prev_pmi=prev.pmi,
                prev_length=prev.length,
            )
        out.append(rec)
        prev = rec
    return out


def table_columns(
    records: Sequence[PredictorRecord], names: Sequence[str]
) -> dict[str, np.ndarray]:
    """Extract named columns as float arrays; None values become NaN."""
    cols = {}
    for name in names:
        if name not in PREDICTOR_NAMES and name != "rt_ms":
            raise FormatError(f"unknown predictor column {name!r}")
        cols[name] = np.array(
            [math.nan if getattr(r, name) is None else float(getattr(r, name)) for r in records]
        )
    return cols


# -- exact-mode variables ------------------------------------------------------


def surprisal_variable(measure: MeasureTable) -> RandomVariableTable:
    """Surprisal as a variable on the enumerated support (eos included)."""
    return RandomVariableTable(
        measure=measure, values=-np.log(measure.row_cond), label="surprisal"
    )


def frequency_variable(
    measure: MeasureTable, q: UnigramLM | None = None
) -> RandomVariableTable:
    """Context-free negative log probability of the row's symbol."""
    if q is None:
        q = unigram_minimizer(measure.source)
    probs = np.array([q.prob(sym) for sym in measure.symbols])
    if np.any(probs[np.unique(measure.row_symbol)] <= 0.0):
        raise DegenerateError("q must cover every symbol on the support")
    return RandomVariableTable(
        measure=measure, values=-np.log(probs[measure.row_symbol]), label="frequency"
    )


def pmi_variable(measure: MeasureTable, q: UnigramLM | None = None) -> RandomVariableTable:
    """Pointwise dependence of symbol on context: frequency - surprisal."""
    f = frequency_variable(measure, q)
    s = surprisal_variable(measure)
    return RandomVariableTable(measure=measure, values=f.values - s.values, label="pmi")
