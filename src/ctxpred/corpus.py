"""Reading-time corpora: parsing, participant aggregation, folds, synthesis.

The corpus exchange format is TSV with a fixed header::

    participant  doc_id  sentence_id  token_idx  token  rt_ms  skipped

one row per (participant, token).  Reading times stay in milliseconds
end to end.  Every stage holds its rows in one columnar ``TokenTable``.
Aggregation averages reading times over the participants who did not
skip the token.  A token skipped by everyone keeps its place in the
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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateError, FormatError
from .lm import AutoregressiveLM, sample_string
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

    @classmethod
    def from_lists(cls, *, doc_id, token, participant=None, **columns) -> "TokenTable":
        """Encode the string columns as codes; the rest become arrays."""
        doc_ids = tuple(sorted(set(doc_id)))
        types = tuple(dict.fromkeys(token))
        cols = {
            "doc": _codes(doc_id, doc_ids),
            "token": _codes(token, types),
            **{name: np.asarray(values) for name, values in columns.items()},
        }
        participants: tuple[str, ...] = ()
        if participant is not None:
            participants = tuple(dict.fromkeys(participant))
            cols["participant"] = _codes(participant, participants)
        return cls(cols, doc_ids, types, participants)

    def __len__(self) -> int:
        return len(self.columns["doc"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, rows: np.ndarray) -> "TokenTable":
        """The table restricted to ``rows`` (indices or a boolean mask)."""
        cols = {name: col[rows] for name, col in self.columns.items()}
        return TokenTable(cols, self.doc_ids, self.types, self.participants)

    def decode(self, name: str) -> list[str]:
        """A code column (``doc``, ``token``, ``participant``) as strings."""
        labels = {"doc": self.doc_ids, "token": self.types, "participant": self.participants}
        return np.asarray(labels[name], dtype=object)[self.columns[name]].tolist()


def _codes(values: Sequence[str], labels: Sequence[str]) -> np.ndarray:
    index = {label: code for code, label in enumerate(labels)}
    return np.array([index[v] for v in values], dtype=np.int64)


def parse_corpus(path) -> tuple[TokenTable, list[tuple[int, str]]]:
    """Read a corpus TSV; returns (rows, malformed (line, reason) pairs).

    Individual bad rows are tolerated and reported; more than
    MALFORMED_LIMIT of the data rows being bad rejects the file.  A
    skipped row may give its ``rt_ms`` as ``NA`` or leave it empty; it
    is read with ``rt_ms`` NaN.  A read row needs a reading time.
    """
    rows: list[tuple] = []
    malformed: list[tuple[int, str]] = []
    n_data_lines = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split("\t")) != CORPUS_HEADER:
            raise FormatError(
                f"{path}: header must be {chr(9).join(CORPUS_HEADER)!r}, got {header!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            n_data_lines += 1
            parts = line.split("\t")
            if len(parts) != len(CORPUS_HEADER):
                malformed.append((lineno, f"expected {len(CORPUS_HEADER)} fields"))
                continue
            participant, doc_id, sent_s, idx_s, token, rt_s, skip_s = parts
            try:
                sentence_id, token_idx, rt_ms = int(sent_s), int(idx_s), float(rt_s)
            except ValueError:
                try:
                    if skip_s != "1" or rt_s not in MISSING_RT:
                        raise ValueError(rt_s)
                    sentence_id, token_idx, rt_ms = int(sent_s), int(idx_s), math.nan
                except ValueError:
                    malformed.append((lineno, "non-numeric sentence_id/token_idx/rt_ms"))
                    continue
            if token_idx < 0 or sentence_id < 0:
                why = "negative index"
            elif not 0.0 <= rt_ms < math.inf and rt_s not in MISSING_RT:
                why = f"rt_ms {rt_s!r} not finite and >= 0"
            elif skip_s not in ("0", "1"):
                why = f"skipped must be 0 or 1, got {skip_s!r}"
            elif not token:
                why = "empty token"
            else:
                rows.append(
                    (participant, doc_id, sentence_id, token_idx, token, rt_ms, skip_s == "1")
                )
                continue
            malformed.append((lineno, why))
    if n_data_lines == 0:
        raise FormatError(f"{path}: corpus has no data rows")
    if len(malformed) > MALFORMED_LIMIT * n_data_lines:
        examples = "; ".join(f"line {ln}: {why}" for ln, why in malformed[:5])
        raise FormatError(
            f"{path}: {len(malformed)} of {n_data_lines} rows malformed "
            f"(limit {MALFORMED_LIMIT:.0%}): {examples}"
        )
    return observation_table(rows), malformed


def observation_table(rows: Sequence[tuple]) -> TokenTable:
    """Readings from (participant, doc_id, sentence_id, token_idx, token,
    rt_ms, skipped) tuples, one per corpus row."""
    participant, doc_id, sentence_id, token_idx, token, rt_ms, skipped = zip(*rows)
    return TokenTable.from_lists(
        participant=participant, doc_id=doc_id, token=token,
        sentence_id=np.array(sentence_id, dtype=np.int64),
        token_idx=np.array(token_idx, dtype=np.int64),
        rt_ms=np.array(rt_ms, dtype=float), skipped=np.array(skipped, dtype=bool),
    )


def write_corpus_tsv(rows: TokenTable, path) -> None:
    columns = zip(
        rows.decode("participant"),
        rows.decode("doc"),
        rows["sentence_id"].tolist(),
        rows["token_idx"].tolist(),
        rows.decode("token"),
        # Python floats, whose repr is the shortest round-tripping form
        rows["rt_ms"].tolist(),
        rows["skipped"].tolist(),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(CORPUS_HEADER) + "\n")
        fh.writelines(
            f"{p}\t{d}\t{s}\t{i}\t{t}\t{rt!r}\t{int(k)}\n"
            for p, d, s, i, t, rt, k in columns
        )


def aggregate_participants(rows: TokenTable) -> TokenTable:
    """Mean reading time per token over participants who read it.

    Returns one row per (doc_id, token_idx), in that order.  A token
    skipped by every participant keeps its row with ``rt_ms`` NaN and
    ``n_readers`` 0.  Each participant reads a token at most once, the
    token text and ``sentence_id`` must agree across participants, and
    ``token_idx`` must run without gaps within a document.
    """
    order = np.lexsort((rows["token_idx"], rows["doc"]))  # stable: file order within a token
    doc = rows["doc"][order]
    idx = rows["token_idx"][order]
    first = np.ones(len(order), dtype=bool)
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
    for count in np.unique(n_readers[n_readers > 0]).tolist():
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


def standardize(values: np.ndarray, label: str = "column") -> np.ndarray:
    """Center to mean zero and scale to unit sample (n-1) deviation."""
    mean, sd = standardize_stats(values, label)
    return (np.asarray(values, dtype=float) - mean) / sd


def standardize_stats(values: np.ndarray, label: str = "column") -> tuple[float, float]:
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
    doc_ids: Sequence[str] | None = None,
) -> FoldAssignment:
    """Seeded balanced fold assignment.

    Token mode (default) shuffles rows and deals them out so fold sizes
    differ by at most one.  Document mode (``doc_ids`` given) keeps each
    document in a single fold, balancing document counts instead.
    """
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if n_rows < k:
        raise ConfigError(f"{n_rows} rows cannot fill {k} folds")
    rng = named_rng(seed, "folds")
    if doc_ids is None:
        perm = rng.permutation(n_rows)
        fold_of_row = np.empty(n_rows, dtype=np.int64)
        fold_of_row[perm] = np.arange(n_rows, dtype=np.int64) % k
        return FoldAssignment(
            n_rows=n_rows, k=k, seed=seed, mode="token", fold_of_row=fold_of_row
        )
    if len(doc_ids) != n_rows:
        raise ConfigError("doc_ids must align with rows")
    docs = sorted(set(doc_ids))
    if len(docs) < k:
        raise ConfigError(f"{len(docs)} documents cannot fill {k} folds")
    order = rng.permutation(len(docs))
    fold_of_doc = {docs[int(d)]: i % k for i, d in enumerate(order)}
    fold_of_row = np.array([fold_of_doc[d] for d in doc_ids], dtype=np.int64)
    return FoldAssignment(
        n_rows=n_rows, k=k, seed=seed, mode="document", fold_of_row=fold_of_row
    )


# -- synthesis --------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticCorpus:
    observations: TokenTable
    records: TokenTable  # scored tokens, no reading times joined
    sidecar: dict


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
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ConfigError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    allowed = {"intercept", *PREDICTOR_NAMES}
    unknown = sorted(set(true_coeffs) - allowed)
    if unknown:
        raise ConfigError(f"unknown coefficient names: {unknown}")

    rng = named_rng(seed, "corpus")
    width = max(4, len(str(n_docs)))
    doc_id: list[str] = []
    sentence_id: list[int] = []
    token_idx: list[int] = []
    token: list[str] = []
    for d in range(n_docs):
        n_tokens = n_sentences = attempts = 0
        while n_tokens < doc_len:
            sent = sample_string(lm, rng)
            attempts += 1
            if not sent:
                if attempts > 50 * (doc_len + 1):
                    raise ConfigError(
                        "model keeps producing empty sentences; cannot fill documents"
                    )
                continue
            doc_id += [f"d{d:0{width}d}"] * len(sent)
            sentence_id += [n_sentences] * len(sent)
            token_idx += range(n_tokens, n_tokens + len(sent))
            token += sent
            n_tokens += len(sent)
            n_sentences += 1

    tokens = TokenTable.from_lists(
        doc_id=doc_id,
        token=token,
        token_idx=np.array(token_idx, dtype=np.int64),
        sentence_id=np.array(sentence_id, dtype=np.int64),
    )
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
