"""Corpus handling, synthesis, and predictor table construction."""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_m1, make_m2_partial, observation_table, random_lm, standardize
from ctxpred.corpus import (
    CORPUS_HEADER,
    WRITE_CHUNK_ROWS,
    TokenTable,
    aggregate_participants,
    generate_synthetic,
    key_order,
    kfold,
    parse_corpus,
    sample_documents,
    standardize_stats,
    write_corpus_tsv,
)
from ctxpred.errors import (
    ConfigError,
    CoverageError,
    DegenerateError,
    FormatError,
)
from ctxpred.hilbert import MeasureTable, frequency_variable, pmi_variable, surprisal_variable
from ctxpred.seeding import named_rng
from ctxpred.cli import atomic_write_text
from ctxpred.lm import (
    EOS_MARK,
    AutoregressiveLM,
    UnitAlphabet,
    load_lm_tsv,
    sample_string,
    write_lm_tsv,
)
from ctxpred.predictors import (
    PREDICTOR_NAMES,
    build_predictor_table,
    parse_external_tsv,
    table_columns,
    write_external_tsv,
)
from oracles import reference_aggregate, reference_documents, reference_score, table_from_lists

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def obs(participant, doc, idx, token, rt, skipped=False, sent=0):
    return (participant, doc, sent, idx, token, rt, skipped)


def tokens(*rows):
    """Token table from (doc_id, token_idx, token, sentence_id, rt_ms) rows."""
    doc_id, token_idx, token, sentence_id, rt_ms = zip(*rows)
    return table_from_lists(
        doc_id=doc_id,
        token_idx=np.array(token_idx),
        token=token,
        sentence_id=np.array(sentence_id),
        rt_ms=np.array(rt_ms, dtype=float),
    )


def readings(table):
    """A reading table back as obs() tuples, in row order."""
    return list(
        zip(
            table.decode("participant"),
            table.decode("doc"),
            table["sentence_id"].tolist(),
            table["token_idx"].tolist(),
            table.decode("token"),
            table["rt_ms"].tolist(),
            table["skipped"].tolist(),
        )
    )


def same_columns(a, b):
    return set(a.columns) == set(b.columns) and all(
        np.array_equal(a[name], b[name], equal_nan=a[name].dtype.kind == "f")
        for name in a.columns
    )


class TestParsing:
    def test_roundtrip(self, tmp_path):
        rows = [obs("p0", "d0", 0, "a", 201.5), obs("p1", "d0", 0, "a", 188.0, True)]
        path = tmp_path / "c.tsv"
        write_corpus_tsv(observation_table(rows), path)
        back, malformed = parse_corpus(path)
        assert malformed == []
        assert readings(back) == rows

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_corpus_tsv(observation_table([obs("p0", "d0", 0, "a", 201.5)]), path)
        before = path.read_bytes()
        # rows past the first chunks written, then one that cannot be
        # encoded: a lone surrogate
        rows = [obs("p0", "d0", i, "a", 200.0) for i in range(2 * WRITE_CHUNK_ROWS)]
        table = observation_table(rows + [obs("p0", "d0", len(rows), "\ud800", 200.0)])
        with pytest.raises(UnicodeEncodeError):
            write_corpus_tsv(table, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.tsv"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\n1\t2\n")
        with pytest.raises(FormatError):
            parse_corpus(path)

    def test_few_malformed_rows_reported_not_fatal(self, tmp_path):
        path = tmp_path / "c.tsv"
        good = "p0\td0\t0\t{i}\ta\t200.0\t0"
        lines = [good.format(i=i) for i in range(40)]
        lines[7] = "p0\td0\t0\tseven\ta\t200.0\t0"
        path.write_text(
            "participant\tdoc_id\tsentence_id\ttoken_idx\ttoken\trt_ms\tskipped\n"
            + "\n".join(lines)
            + "\n"
        )
        rows, malformed = parse_corpus(path)
        assert len(rows) == 39
        assert len(malformed) == 1
        assert malformed[0][0] == 9  # 1-based line number, after the header

    def test_too_many_malformed_rows_fatal(self, tmp_path):
        path = tmp_path / "c.tsv"
        lines = ["p0\td0\t0\t0\ta\t200.0\t0", "junk", "more junk"]
        path.write_text(
            "participant\tdoc_id\tsentence_id\ttoken_idx\ttoken\trt_ms\tskipped\n"
            + "\n".join(lines)
            + "\n"
        )
        with pytest.raises(FormatError):
            parse_corpus(path)

    def test_negative_rt_is_malformed(self, tmp_path):
        path = tmp_path / "c.tsv"
        lines = ["p0\td0\t0\t%d\ta\t200.0\t0" % i for i in range(30)]
        lines.append("p0\td0\t0\t30\ta\t-5.0\t0")
        path.write_text(
            "participant\tdoc_id\tsentence_id\ttoken_idx\ttoken\trt_ms\tskipped\n"
            + "\n".join(lines)
            + "\n"
        )
        rows, malformed = parse_corpus(path)
        assert len(malformed) == 1


    def test_index_beyond_int64_is_malformed(self, tmp_path):
        path = tmp_path / "c.tsv"
        lines = ["p0\td0\t0\t%d\ta\t200.0\t0" % i for i in range(30)]
        lines.append(f"p0\td0\t0\t{2 ** 63}\ta\t200.0\t0")
        path.write_text("\t".join(CORPUS_HEADER) + "\n" + "\n".join(lines) + "\n")
        rows, malformed = parse_corpus(path)
        assert malformed == [(32, "index out of range")]
        assert len(rows) == 30

    def test_skipped_row_may_carry_no_reading_time(self, tmp_path):
        path = tmp_path / "c.tsv"
        lines = ["p0\td0\t0\t%d\ta\t200.0\t0" % i for i in range(30)]
        lines[3] = "p0\td0\t0\t3\ta\tNA\t1"
        lines[4] = "p0\td0\t0\t4\ta\t\t1"
        lines[5] = "p0\td0\t0\t5\ta\tNA\t0"  # a read row needs its time
        path.write_text(
            "participant\tdoc_id\tsentence_id\ttoken_idx\ttoken\trt_ms\tskipped\n"
            + "\n".join(lines)
            + "\n"
        )
        rows, malformed = parse_corpus(path)
        assert [ln for ln, _ in malformed] == [7]
        assert len(rows) == 29
        assert rows["skipped"][3] and rows["skipped"][4]
        assert math.isnan(rows["rt_ms"][3]) and math.isnan(rows["rt_ms"][4])


class TestAggregation:
    def test_mean_over_readers(self):
        rows = [
            obs("p0", "d0", 0, "a", 200.0),
            obs("p1", "d0", 0, "a", 300.0),
            obs("p2", "d0", 0, "a", 0.0, skipped=True),
        ]
        agg = aggregate_participants(observation_table(rows))
        assert len(agg) == 1
        assert agg["rt_ms"][0] == pytest.approx(250.0)
        assert agg["n_readers"][0] == 2

    def test_all_skipped_token_kept_without_reading_time(self):
        rows = [
            obs("p0", "d0", 0, "a", 0.0, skipped=True),
            obs("p1", "d0", 0, "a", 0.0, skipped=True),
            obs("p0", "d0", 1, "b", 150.0),
        ]
        agg = aggregate_participants(observation_table(rows))
        assert agg["token_idx"].tolist() == [0, 1]
        assert agg.decode("token") == ["a", "b"]
        assert math.isnan(agg["rt_ms"][0]) and agg["rt_ms"][1] == 150.0
        assert agg["n_readers"].tolist() == [0, 1]

    def test_token_idx_gap_rejected(self):
        rows = [
            obs(p, d, i, "a", 200.0)
            for d, idxs in (("d0", [0, 1, 2]), ("d1", [0, 1, 3, 4]))
            for i in idxs
            for p in ("p0", "p1")
        ]
        with pytest.raises(FormatError, match=r"'d1'.* token_idx 1 to 3"):
            aggregate_participants(observation_table(rows))

    def test_token_disagreement_rejected(self):
        rows = [obs("p0", "d0", 0, "a", 200.0), obs("p1", "d0", 0, "b", 300.0)]
        with pytest.raises(FormatError, match="token text disagrees"):
            aggregate_participants(observation_table(rows))

    def test_duplicate_participant_row_rejected(self):
        rows = [
            obs("p0", "d0", 0, "a", 200.0),
            obs("p1", "d0", 0, "a", 300.0),
            obs("p0", "d0", 0, "a", 260.0),
        ]
        with pytest.raises(FormatError, match=r"'p0' has more than one row at \('d0', 0\)"):
            aggregate_participants(observation_table(rows))

    def test_sentence_id_disagreement_rejected(self):
        rows = [
            obs("p0", "d0", 0, "a", 200.0, sent=0),
            obs("p0", "d0", 1, "a", 210.0, sent=0),
            obs("p1", "d0", 0, "a", 300.0, sent=0),
            obs("p1", "d0", 1, "a", 310.0, sent=1),
        ]
        with pytest.raises(FormatError, match=r"sentence_id disagrees .* \('d0', 1\): \[0, 1\]"):
            aggregate_participants(observation_table(rows))


@st.composite
def skipped_corpora(draw):
    """A model, a sampled text, and shuffled readings with random skips."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    lm = random_lm(rng, max_order=2)
    n_participants = draw(st.integers(min_value=1, max_value=12))
    text = []
    for d in range(draw(st.integers(min_value=1, max_value=4))):
        token_idx = 0
        for sentence_id in range(draw(st.integers(min_value=1, max_value=4))):
            for token in sample_string(lm, rng):
                text.append((f"doc{d}", sentence_id, token_idx, token))
                token_idx += 1
    assume(text)
    skip_p = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rows = [
        (f"p{p}", doc_id, sentence_id, token_idx, token,
         float(rng.gamma(9.0, 25.0)), bool(rng.random() < skip_p))
        for doc_id, sentence_id, token_idx, token in text
        for p in range(n_participants)
    ]
    assume(not all(row[6] for row in rows))
    order = rng.permutation(len(rows))
    return lm, [rows[i] for i in order]


class TestReadingLayouts:
    """The same readings aggregate to the same table, bit for bit, in
    whatever order the file holds them.  Token-major rows (as ``gen``
    writes them) are read in place; other orders are sorted first."""

    @pytest.fixture(scope="class")
    def token_major(self):
        lm = load_lm_tsv(FIXTURES / "mixture.tsv")
        out = generate_synthetic(lm, {"intercept": 200.0, "surprisal": 10.0}, 10.0,
                                 n_docs=5, doc_len=30, seed=8, n_participants=3)
        rows = out.observations
        skipped = np.random.default_rng(8).random(len(rows)) < 0.3
        rt_ms = np.where(skipped, math.nan, rows["rt_ms"])
        return TokenTable({**rows.columns, "rt_ms": rt_ms, "skipped": skipped},
                          rows.doc_ids, rows.types, rows.participants)

    @staticmethod
    def layouts(rows):
        """Participant-major and shuffled copies of token-major ``rows``.
        A token's mean sums its readings in file order, so the shuffle
        keeps each token's readings in the order they had."""
        key = rows["doc"] * (int(rows["token_idx"].max()) + 1) + rows["token_idx"]
        shuffled = np.random.default_rng(3).permutation(len(rows))
        at = np.empty(len(rows), dtype=np.int64)
        at[np.argsort(key[shuffled], kind="stable")] = np.argsort(key, kind="stable")
        return {
            "participant-major": rows.take(np.argsort(rows["participant"], kind="stable")),
            "shuffled": rows.take(at),
        }

    def test_every_layout_aggregates_alike(self, token_major):
        want = aggregate_participants(token_major)
        assert np.isnan(want["rt_ms"]).any() and (want["n_readers"] < 3).any()
        for name, rows in self.layouts(token_major).items():
            assert not isinstance(key_order(rows), slice), name  # sorted first
            got = aggregate_participants(rows)
            assert list(got.columns) == list(want.columns), name
            for column in want.columns:
                a, b = got[column], want[column]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, column)

    def test_ordered_readings_are_read_in_place(self, token_major, monkeypatch):
        lm = load_lm_tsv(FIXTURES / "mixture.tsv")

        def no_sort(*args, **kwargs):
            raise AssertionError("np.lexsort called on ordered rows")

        monkeypatch.setattr(np, "lexsort", no_sort)
        assert key_order(token_major) == slice(None)
        tokens = aggregate_participants(token_major)
        records = build_predictor_table(tokens, lm)
        for name, column in tokens.columns.items():
            assert records[name] is column, name


class TestColumnarMatchesPerRowPath:
    @given(case=skipped_corpora())
    @settings(max_examples=60, deadline=None)
    def test_columns_bit_equal_to_reference(self, case):
        lm, rows = case
        agg = aggregate_participants(observation_table(rows))
        ref = reference_aggregate(rows)
        assert list(zip(agg.decode("doc"), agg["sentence_id"].tolist(),
                        agg["token_idx"].tolist(), agg.decode("token"))) == [r[:4] for r in ref]
        assert agg["n_readers"].tolist() == [r[5] for r in ref]
        want_rt = [math.nan if r[4] is None else r[4] for r in ref]
        assert np.array_equal(agg["rt_ms"], want_rt, equal_nan=True)

        recs = build_predictor_table(agg, lm)
        ref_recs = reference_score([r[:4] for r in ref], lm)
        for name in PREDICTOR_NAMES:
            want = [math.nan if rec[name] is None else rec[name] for rec in ref_recs]
            assert np.array_equal(recs[name], want, equal_nan=True), name
        assert np.array_equal(recs["rt_ms"], want_rt, equal_nan=True)


class TestPartlyUndefinedStates:
    """An order-2 model that never defines ('b',) but reaches ('b', 'a')."""

    def test_sampled_corpus_bit_equal_to_reference(self):
        lm = make_m2_partial()
        rng = np.random.default_rng(31)
        rows, longest = [], 0
        for d in range(6):
            token_idx = 0
            for sentence_id in range(40):
                sentence = sample_string(lm, rng)
                longest = max(longest, len(sentence))
                for token in sentence:
                    rows.append(obs("p0", f"d{d}", token_idx, token, 200.0, sent=sentence_id))
                    token_idx += 1
        assert longest >= 4  # the walk reaches ('b', 'a') and comes back
        agg = aggregate_participants(observation_table(rows))
        recs = build_predictor_table(agg, lm)
        ref = reference_score(
            list(zip(agg.decode("doc"), agg["sentence_id"].tolist(),
                     agg["token_idx"].tolist(), agg.decode("token"))),
            lm,
        )
        for name in PREDICTOR_NAMES:
            want = [math.nan if rec[name] is None else rec[name] for rec in ref]
            assert np.array_equal(recs[name], want, equal_nan=True), name

    def test_undefined_successor_reports_the_zero_probability_row(self):
        # ('b',) is undefined, so the row after the first 'b' has no
        # state; the zero-probability row before it raises first
        table = tokens(("d0", 0, "a", 0, 1.0), ("d0", 1, "b", 1, 1.0),
                       ("d0", 2, "a", 1, 1.0), ("d0", 3, "b", 1, 1.0))
        with pytest.raises(DegenerateError) as err:
            build_predictor_table(table, make_m2_partial())
        assert str(err.value) == "unit 'b' has zero conditional probability after ()"


class TestSkippedTokensStayInTheText:
    """A token skipped by everyone still conditions its neighbours."""

    @pytest.fixture
    def mixture(self):
        return load_lm_tsv(FIXTURES / "mixture.tsv")

    def readings_of(self, skip_bb):
        return observation_table([
            obs(p, "d0", i, tok, 200.0 + i, skipped=skip_bb and tok == "bb")
            for i, tok in enumerate(["a", "bb", "a"])
            for p in ("p0", "p1")
        ])

    def test_third_token_conditions_on_the_skipped_one(self, mixture):
        recs = build_predictor_table(
            aggregate_participants(self.readings_of(skip_bb=True)), mixture
        )
        assert recs["surprisal"][2] == pytest.approx(2.525, abs=5e-4)
        assert recs["surprisal"][2] == -math.log(mixture.cond[("bb",)]["a"])
        for name in ("surprisal", "frequency", "pmi", "length"):
            assert recs[f"prev_{name}"][2] == recs[name][1]
        assert recs["prev_length"][2] == 2.0
        assert math.isnan(recs["rt_ms"][1])

    def test_scores_equal_those_of_the_unskipped_text(self, mixture):
        skipped, full = (
            build_predictor_table(aggregate_participants(self.readings_of(flag)), mixture)
            for flag in (True, False)
        )
        for name in PREDICTOR_NAMES:
            assert np.array_equal(skipped[name], full[name], equal_nan=True), name


class TestSkippedRowsMarkedNA:
    """Skipped rows whose reading time is NA: the token stays in the text."""

    HEADER = "participant\tdoc_id\tsentence_id\ttoken_idx\ttoken\trt_ms\tskipped\n"

    def write(self, path, na_rows):
        text = ["a"] * 60
        text[5] = "bb"
        lines = []
        for i, tok in enumerate(text):
            for p in ("p0", "p1"):
                if len(lines) in na_rows:
                    lines.append(f"{p}\td0\t0\t{i}\t{tok}\tNA\t1")
                else:
                    lines.append(f"{p}\td0\t0\t{i}\t{tok}\t{200.0 + i!r}\t0")
        path.write_text(self.HEADER + "\n".join(lines) + "\n")

    def test_neighbour_conditions_on_token_marked_na(self, tmp_path):
        mixture = load_lm_tsv(FIXTURES / "mixture.tsv")
        path = tmp_path / "c.tsv"
        self.write(path, na_rows={10, 11})  # both readings of token 5, bb
        rows, malformed = parse_corpus(path)
        assert malformed == []
        recs = build_predictor_table(aggregate_participants(rows), mixture)
        assert recs["token_idx"].tolist() == list(range(60))
        assert math.isnan(recs["rt_ms"][5])
        assert recs["surprisal"][6] == pytest.approx(2.525, abs=5e-4)
        for name in ("surprisal", "frequency", "pmi", "length"):
            assert recs[f"prev_{name}"][6] == recs[name][5]
        assert recs["prev_length"][6] == 2.0

    def test_na_on_every_tenth_row_is_not_malformed(self, tmp_path):
        path = tmp_path / "c.tsv"
        self.write(path, na_rows=set(range(0, 120, 10)))
        rows, malformed = parse_corpus(path)
        assert malformed == []
        assert len(rows) == 120
        assert int(rows["skipped"].sum()) == 12


class TestStandardize:
    def test_basic(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        s = standardize(v)
        assert s.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.std(s, ddof=1) == pytest.approx(1.0, rel=1e-12)

    def test_uses_sample_sd(self):
        v = np.array([0.0, 2.0])
        _, sd = standardize_stats(v)
        assert sd == pytest.approx(np.sqrt(2.0))

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateError):
            standardize(np.array([3.0, 3.0, 3.0]), label="len")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=20) * 7.0 + 3.0
        once = standardize(v)
        twice = standardize(once)
        assert np.allclose(once, twice, atol=1e-10)


class TestFolds:
    def test_partition_and_balance(self):
        fa = kfold(103, 10, seed=5)
        sizes = [fa.test_idx(f).size for f in range(10)]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1
        all_idx = np.concatenate([fa.test_idx(f) for f in range(10)])
        assert sorted(all_idx.tolist()) == list(range(103))

    def test_train_test_disjoint(self):
        fa = kfold(50, 5, seed=1)
        for f in range(5):
            assert not set(fa.test_idx(f)) & set(fa.train_idx(f))

    def test_seed_determinism(self):
        a = kfold(64, 4, seed=9)
        b = kfold(64, 4, seed=9)
        c = kfold(64, 4, seed=10)
        assert np.array_equal(a.fold_of_row, b.fold_of_row)
        assert not np.array_equal(a.fold_of_row, c.fold_of_row)

    def test_document_mode_keeps_docs_whole(self):
        doc_ids = [f"d{i//7}" for i in range(70)]
        fa = kfold(70, 5, seed=3, doc_ids=doc_ids)
        assert fa.mode == "document"
        for d in set(doc_ids):
            rows = [i for i, x in enumerate(doc_ids) if x == d]
            assert len({int(fa.fold_of_row[i]) for i in rows}) == 1

    def test_document_codes_deal_as_their_labels(self):
        # codes that sort as the doc ids (gaps allowed) deal as the ids do:
        # each document to the fold of its place in one seeded permutation
        doc_ids = [f"d{(5 * i // 7) % 13:02d}" for i in range(91)]
        labels = sorted(set(doc_ids))
        codes = 3 * np.array([labels.index(d) for d in doc_ids])
        by_label = kfold(91, 4, seed=3, doc_ids=doc_ids)
        assert np.array_equal(kfold(91, 4, seed=3, doc_ids=codes).fold_of_row, by_label.fold_of_row)
        order = named_rng(3, "folds").permutation(len(labels))
        fold_of_doc = {labels[d]: i % 4 for i, d in enumerate(order)}
        assert by_label.fold_of_row.tolist() == [fold_of_doc[d] for d in doc_ids]

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            kfold(10, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold(3, 5, seed=0)
        with pytest.raises(ConfigError):
            kfold(10, 5, seed=0, doc_ids=["d0"] * 10)


def sentences(*units):
    """One document whose sentences are the given unit sequences."""
    rows, idx = [], 0
    for sent, seq in enumerate(units):
        for u in seq:
            rows.append(("d0", idx, u, sent, 200.0))
            idx += 1
    return tokens(*rows)


class TestScalarPredictors:
    """Frozen per-token values, read off rows of the predictor table."""

    def test_m1_frozen_values(self, m1):
        recs = build_predictor_table(sentences(["a"]), m1)
        s, f = recs["surprisal"][0], recs["frequency"][0]
        assert s == pytest.approx(0.2231435513, abs=1e-9)
        assert f == pytest.approx(math.log(31.0 / 16.0), abs=1e-12)
        assert f == pytest.approx(0.6613984822, abs=1e-9)
        assert recs["pmi"][0] == pytest.approx(f - s, abs=1e-12)
        assert recs["pmi"][0] == pytest.approx(0.4382549309, abs=1e-9)

    def test_pmi_is_exactly_the_difference(self, m0):
        # each unit after the contexts (), (a,) and (b, a)
        recs = build_predictor_table(
            sentences(["a"], ["b"], ["a", "a"], ["a", "b"], ["b", "a", "a"], ["b", "a", "b"]),
            m0,
        )
        assert np.array_equal(recs["pmi"], recs["frequency"] - recs["surprisal"])

    def test_memoryless_pmi_is_zero(self, m0):
        recs = build_predictor_table(sentences(["b", "b", "a", "a"]), m0)
        assert recs["pmi"][3] == pytest.approx(0.0, abs=1e-12)


class TestTableInternal:
    def test_context_resets_per_sentence(self, m1):
        recs = build_predictor_table(
            tokens(("d0", 0, "a", 0, 200.0), ("d0", 1, "a", 0, 200.0), ("d0", 2, "a", 1, 200.0)),
            m1,
        )
        assert recs["surprisal"][0] == pytest.approx(-math.log(0.8))
        assert recs["surprisal"][1] == pytest.approx(-math.log(0.25))
        # new sentence, context starts over
        assert recs["surprisal"][2] == pytest.approx(-math.log(0.8))

    def test_spillover_crosses_sentences_within_doc(self, m1):
        recs = build_predictor_table(
            tokens(("d0", 0, "a", 0, 200.0), ("d0", 1, "a", 1, 200.0), ("d1", 0, "a", 0, 200.0)),
            m1,
        )
        assert math.isnan(recs["prev_surprisal"][0])
        assert recs["prev_surprisal"][1] == pytest.approx(recs["surprisal"][0])
        assert recs["prev_length"][1] == 1.0
        # new document: spillover resets
        assert math.isnan(recs["prev_surprisal"][2])

    def test_unknown_token_coverage_error(self, m1):
        with pytest.raises(CoverageError) as err:
            build_predictor_table(tokens(("d0", 0, "zzz", 0, 200.0)), m1)
        assert str(err.value) == (
            "1 corpus token types are outside the model alphabet: ['zzz']"
        )
        assert err.value.missing == ["zzz"]

    def test_structural_zero_names_unit_and_context(self, m0):
        lm = AutoregressiveLM(
            alphabet=m0.alphabet,
            cond={(): {"a": 0.5, "$": 0.5}, ("a",): {"b": 0.5, "$": 0.5},
                  ("b",): {"a": 0.5, "$": 0.5}},
        )
        table = tokens(("d0", 0, "a", 0, 1.0), ("d0", 1, "b", 0, 1.0), ("d0", 2, "b", 0, 1.0))
        with pytest.raises(DegenerateError) as err:
            build_predictor_table(table, lm)
        assert str(err.value) == (
            "unit 'b' has zero conditional probability after ('a', 'b')"
        )

    def test_reading_time_carried(self, m1):
        recs = build_predictor_table(tokens(("d0", 0, "a", 0, 123.0)), m1)
        assert recs["rt_ms"][0] == 123.0

    def test_columns_with_nan_spillover(self, m1):
        recs = build_predictor_table(
            tokens(("d0", 0, "a", 0, 200.0), ("d0", 1, "a", 0, 200.0)), m1
        )
        cols = table_columns(recs, ["surprisal", "prev_surprisal"])
        assert math.isnan(cols["prev_surprisal"][0])
        assert cols["prev_surprisal"][1] == pytest.approx(recs["surprisal"][0])


class TestTableExternal:
    def write(self, tmp_path, lines):
        path = tmp_path / "ext.tsv"
        path.write_text("doc_id\ttoken_idx\ttoken\tsurprisal\tfrequency\n" + lines)
        return path

    def test_join(self, tmp_path):
        path = self.write(tmp_path, "d0\t0\tcat\t2.5\t3.0\nd0\t1\tsat\t1.5\t2.0\n")
        ext = parse_external_tsv(path)
        toks = tokens(("d0", 0, "cat", 0, 180.0), ("d0", 1, "sat", 0, 190.0))
        recs = build_predictor_table(toks, ext)
        assert recs["surprisal"][0] == 2.5
        assert recs["pmi"][0] == pytest.approx(0.5)
        assert recs["length"][0] == 3.0
        assert recs["prev_frequency"][1] == pytest.approx(3.0)

    def test_missing_row_named(self, tmp_path):
        path = self.write(tmp_path, "d0\t0\tcat\t2.5\t3.0\n")
        ext = parse_external_tsv(path)
        toks = tokens(("d0", 0, "cat", 0, 180.0), ("d0", 1, "sat", 0, 190.0))
        with pytest.raises(CoverageError) as err:
            build_predictor_table(toks, ext)
        assert "sat" in str(err.value)
        assert err.value.missing == [("d0", 1, "sat")]

    def test_rows_of_other_documents_are_ignored(self, tmp_path):
        path = self.write(
            tmp_path, "d9\t0\tcat\t9.0\t9.0\nd0\t0\tcat\t2.5\t3.0\nd0\t1\tsat\t1.5\t2.0\n"
        )
        toks = tokens(("d0", 0, "cat", 0, 180.0), ("d0", 1, "sat", 0, 190.0))
        recs = build_predictor_table(toks, parse_external_tsv(path))
        assert recs["surprisal"].tolist() == [2.5, 1.5]
        assert recs["frequency"].tolist() == [3.0, 2.0]

    def test_token_mismatch_is_missing(self, tmp_path):
        path = self.write(tmp_path, "d0\t0\tdog\t2.5\t3.0\n")
        ext = parse_external_tsv(path)
        with pytest.raises(CoverageError):
            build_predictor_table(tokens(("d0", 0, "cat", 0, 180.0)), ext)

    def test_schema_violations(self, tmp_path):
        with pytest.raises(FormatError):
            parse_external_tsv(self.write(tmp_path, "d0\t0\tcat\t2.5\n"))
        with pytest.raises(FormatError):
            parse_external_tsv(self.write(tmp_path, "d0\t0\tcat\t-1.0\t3.0\n"))
        with pytest.raises(FormatError, match="must increase"):
            parse_external_tsv(
                self.write(tmp_path, "d0\t1\tcat\t1.0\t3.0\nd0\t0\tsat\t1.0\t2.0\n")
            )
        with pytest.raises(FormatError, match=":2: token_idx out of range"):
            parse_external_tsv(self.write(tmp_path, f"d0\t{2 ** 63}\tcat\t1.0\t3.0\n"))
        with pytest.raises(FormatError):
            parse_external_tsv(
                self.write(tmp_path, "d0\t0\tcat\t1.0\t3.0\nd0\t0\tcat\t1.0\t2.0\n")
            )

    def test_roundtrip(self, tmp_path, m1):
        toks = tokens(*[("d0", i, "a", 0, 100.0) for i in range(3)])
        recs = build_predictor_table(toks, m1)
        path = tmp_path / "ext.tsv"
        write_external_tsv(recs, path)
        again = build_predictor_table(toks, parse_external_tsv(path))
        assert np.array_equal(recs["surprisal"], again["surprisal"])
        assert np.array_equal(recs["frequency"], again["frequency"])


def _unit_model(units):
    """An order-0 model over ``units``, evenly."""
    p = 1.0 / (len(units) + 1)
    return AutoregressiveLM(
        alphabet=UnitAlphabet(units=tuple(units)),
        cond={(): {**{u: p for u in units}, EOS_MARK: p}},
    )


def _token_table(labels):
    n = len(labels)
    return table_from_lists(
        doc_id=["d0"] * n, token=labels, token_idx=np.arange(n), sentence_id=np.zeros(n, int),
        surprisal=np.full(n, 1.5), frequency=np.full(n, 2.5),
    )


# each writer but the corpus one (TestParsing) with a good input and one
# whose last item is a lone surrogate, which the UTF-8 encoder refuses
# after the rest is written
WRITERS = {
    "external": (
        write_external_tsv,
        lambda bad: _token_table(["a"] * 3 * WRITE_CHUNK_ROWS + ["\ud800"] if bad else ["a"]),
    ),
    "lm": (
        write_lm_tsv,
        lambda bad: _unit_model([f"u{i:04d}" for i in range(2000)] + ["\ud800"] if bad else ["a"]),
    ),
    "text": (
        lambda text, path: atomic_write_text(path, text),
        lambda bad: "x" * (1 << 20) + "\ud800" if bad else "{}\n",
    ),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_leaves_the_earlier_file(tmp_path, writer):
    write, make = WRITERS[writer]
    path = tmp_path / "out"
    write(make(False), path)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write(make(True), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def _same_bits(a: TokenTable, b: TokenTable) -> bool:
    return (
        list(a.columns) == list(b.columns)
        and (a.doc_ids, a.types, a.participants) == (b.doc_ids, b.types, b.participants)
        and all(
            a[n].dtype == b[n].dtype and a[n].tobytes() == b[n].tobytes() for n in a.columns
        )
    )


class TestWrittenFilesReadBack:
    def test_corpus_with_skips_without_times(self, tmp_path):
        rows = [f"p{p}\td{i % 2}\t0\t{i // 2}\tab\t{200.0 + i / 7!r}\t0"
                for p in range(2) for i in range(8)]
        rows[3] = "p0\td1\t0\t1\tab\tNA\t1"
        rows[12] = "p1\td0\t0\t2\tab\t\t1"
        first = tmp_path / "first.tsv"
        first.write_text("\t".join(CORPUS_HEADER) + "\n" + "\n".join(rows) + "\n")
        table, malformed = parse_corpus(first)
        assert malformed == [] and np.isnan(table["rt_ms"]).sum() == 2
        write_corpus_tsv(table, tmp_path / "again.tsv")
        again, malformed = parse_corpus(tmp_path / "again.tsv")
        assert malformed == []
        assert _same_bits(again, table)

    def test_predictor_table(self, tmp_path):
        lm = load_lm_tsv(FIXTURES / "mixture.tsv")
        result = generate_synthetic(lm, {"intercept": 200.0}, 10.0, n_docs=3, doc_len=30, seed=4)
        write_external_tsv(result.records, tmp_path / "first.tsv")
        table = parse_external_tsv(tmp_path / "first.tsv")
        for name in ("token_idx", "surprisal", "frequency"):
            assert table[name].tobytes() == result.records[name].tobytes(), name
        write_external_tsv(table, tmp_path / "again.tsv")
        assert _same_bits(parse_external_tsv(tmp_path / "again.tsv"), table)
        assert (tmp_path / "again.tsv").read_bytes() == (tmp_path / "first.tsv").read_bytes()


def test_gen_writes_the_readings_without_their_table(tmp_path):
    # each chunk's rows come from the token records and the tokens x
    # participants reading times; the writer's own peak, about 0.69 of
    # the per-reading table here, is a few chunks' strings
    lm = load_lm_tsv(FIXTURES / "mixture.tsv")
    coeffs = {"intercept": 200.0, "surprisal": 10.0, "frequency": 6.0, "length": 2.0}
    result = generate_synthetic(lm, coeffs, 10.0, n_docs=120, doc_len=250, seed=4,
                                n_participants=3)
    tracemalloc.start()
    try:
        write_corpus_tsv(result, tmp_path / "corpus.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "observations" not in vars(result)
    table = result.observations
    table_bytes = sum(column.nbytes for column in table.columns.values())
    assert peak <= 0.83 * table_bytes, peak / table_bytes
    write_corpus_tsv(table, tmp_path / "table.tsv")
    assert (tmp_path / "corpus.tsv").read_bytes() == (tmp_path / "table.tsv").read_bytes()


class TestExactVariables:
    def test_memoryless_surprisal_equals_frequency(self, m0):
        t = MeasureTable.from_lm(m0)
        s = surprisal_variable(t)
        f = frequency_variable(t)
        assert np.allclose(s.values, f.values, atol=1e-12)
        assert np.allclose(pmi_variable(t).values, 0.0, atol=1e-12)

    def test_pmi_identity_on_context_model(self, m1):
        t = MeasureTable.from_lm(m1)
        p = pmi_variable(t)
        s = surprisal_variable(t)
        f = frequency_variable(t)
        assert np.allclose(p.values, f.values - s.values, atol=1e-15)


class TestSynthesis:
    def test_deterministic(self, m1):
        a = generate_synthetic(m1, {"intercept": 100.0}, 1.0, 5, 8, seed=11)
        b = generate_synthetic(m1, {"intercept": 100.0}, 1.0, 5, 8, seed=11)
        c = generate_synthetic(m1, {"intercept": 100.0}, 1.0, 5, 8, seed=12)
        assert same_columns(a.observations, b.observations)
        assert not same_columns(a.observations, c.observations)

    def test_noiseless_times_are_exactly_affine(self):
        m1 = make_m1()
        coeffs = {"intercept": 120.0, "surprisal": 10.0, "frequency": -5.0}
        out = generate_synthetic(m1, coeffs, 0.0, 4, 6, seed=2)
        recs, obs_ = out.records, out.observations
        by_key = {
            key: row
            for row, key in enumerate(zip(recs["doc"].tolist(), recs["token_idx"].tolist()))
        }
        for o, key in enumerate(zip(obs_["doc"].tolist(), obs_["token_idx"].tolist())):
            row = by_key[key]
            want = 120.0 + 10.0 * recs["surprisal"][row] - 5.0 * recs["frequency"][row]
            assert obs_["rt_ms"][o] == pytest.approx(want, abs=1e-12)

    def test_doc_len_reached(self, m1):
        out = generate_synthetic(m1, {"intercept": 100.0}, 0.0, 3, 10, seed=4)
        per_doc = np.bincount(out.records["doc"])
        assert len(per_doc) == 3
        assert all(n >= 10 for n in per_doc)

    def test_sidecar_contents(self, m1):
        out = generate_synthetic(m1, {"intercept": 100.0}, 2.0, 2, 4, seed=7)
        assert out.sidecar == {
            "true_coeffs": {"intercept": 100.0},
            "noise_sd": 2.0,
            "seed": 7,
        }

    def test_negative_time_rejected(self, m1):
        with pytest.raises(ConfigError):
            generate_synthetic(m1, {"intercept": 0.5}, 10.0, 2, 4, seed=1)

    def test_unknown_coefficient_rejected(self, m1):
        with pytest.raises(ConfigError):
            generate_synthetic(m1, {"wibble": 1.0}, 1.0, 2, 4, seed=1)

    @pytest.mark.parametrize("n_docs,doc_len,n_participants", [(0, 4, 1), (2, 0, 1), (2, 4, 0)])
    def test_nonpositive_sizes_rejected(self, m1, n_docs, doc_len, n_participants):
        with pytest.raises(ConfigError, match="must be positive"):
            generate_synthetic(
                m1, {"intercept": 100.0}, 1.0, n_docs, doc_len, seed=1,
                n_participants=n_participants,
            )

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 4),
           doc_len=st.sampled_from([1, 2, 3, 7, 25]))
    def test_stream_is_one_draw_per_symbol(self, seed, n_docs, doc_len):
        """Documents drawn a block of uniforms at a time hold the tokens
        that one draw per symbol gives, and leave the generator where it
        leaves it.  random_lm's start state ends a string with
        probability 0.5 or more, so empty sentences are common."""
        lm = random_lm(np.random.default_rng(seed), max_order=2)
        fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        table = sample_documents(lm, fast, n_docs, doc_len)
        want = reference_documents(lm, slow, n_docs, doc_len)
        assert fast.random() == slow.random()
        got = [[] for _ in range(n_docs)]
        for d, s, i, token in zip(table["doc"].tolist(), table["sentence_id"].tolist(),
                                  table["token_idx"].tolist(), table.decode("token")):
            if s == len(got[d]):
                got[d].append([])
            got[d][s].append(token)
            assert i == sum(map(len, got[d])) - 1
        assert got == want
        assert table.doc_ids == tuple(f"d{d:04d}" for d in range(n_docs))
        assert table.types == tuple(dict.fromkeys(table.decode("token")))

    def test_only_empty_sentences_rejected(self):
        lm = AutoregressiveLM(alphabet=UnitAlphabet(units=("a",)), cond={(): {EOS_MARK: 1.0}})
        with pytest.raises(ConfigError, match="keeps producing empty sentences"):
            generate_synthetic(lm, {"intercept": 100.0}, 1.0, 2, 3, seed=1)

    def test_participants_share_tokens(self, m1):
        out = generate_synthetic(
            m1, {"intercept": 100.0}, 1.0, 2, 5, seed=3, n_participants=3
        )
        assert set(out.observations.decode("participant")) == {"p00", "p01", "p02"}
        agg = aggregate_participants(out.observations)
        assert len(agg) == len(out.records)
        assert np.all(agg["n_readers"] == 3)
