"""End-to-end behaviour of the cross-validated analysis orchestrator.

The deepest invariants here are algebraic: the three competing linear
models span the same column space fold by fold, so their training
R-squared and held-out scores must agree to machine precision, while
their variance decompositions differ.  Residualized columns must be
exactly uncorrelated with their anchors on training rows, and
raw-scale coefficient read-outs must match independent fits built
outside the pipeline.
"""

import multiprocessing
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from ctxpred.corpus import (
    TokenTable,
    aggregate_participants,
    generate_synthetic,
    kfold,
)
from ctxpred import pipeline
from ctxpred.cli import _lmg_rows
from ctxpred.errors import ConfigError, DegenerateError, RankDeficiencyError
from ctxpred.lm import load_lm_tsv
from ctxpred.pipeline import (
    MODEL_KINDS,
    _design_columns,
    analyze_observations,
    analyze_tokens,
    model_spec,
)
from ctxpred.predictors import (
    PREDICTOR_NAMES,
    build_predictor_table,
    parse_external_tsv,
    table_columns,
    write_external_tsv,
)
from ctxpred.regression import lmg
from ctxpred.smooth import SmoothTerm

from conftest import heldout_delta, observation_table, smooth_fit
from oracles import fit_columns, normal_logpdf, nrow_fold, nrow_pooled, table_from_lists

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TRUE_COEFFS = {"intercept": 200.0, "surprisal": 10.0, "frequency": 6.0, "length": 2.0}
SEED = 11
FOLDS = 5


@pytest.fixture(scope="module")
def mixture_lm():
    return load_lm_tsv(FIXTURES / "mixture.tsv")


@pytest.fixture(scope="module")
def synth(mixture_lm):
    return generate_synthetic(mixture_lm, TRUE_COEFFS, 8.0, 40, 60, seed=5)


@pytest.fixture(scope="module")
def result(mixture_lm, synth):
    return analyze_observations(mixture_lm, synth.observations, seed=SEED, folds=FOLDS)


@pytest.fixture(scope="module")
def usable_rows(mixture_lm, synth):
    records = build_predictor_table(
        aggregate_participants(synth.observations), mixture_lm
    )
    return records.take(
        ~np.isnan(records["prev_surprisal"]) & ~np.isnan(records["rt_ms"])
    )


_S = ("surprisal", "surprisal", None)
_P = ("pmi", "pmi", None)
_F = ("frequency", "frequency", None)
_L = ("length", "length", None)
_ORTHO_S = ("ortho_surprisal", "surprisal", "frequency")
_ORTHO_F = ("ortho_frequency", "frequency", "surprisal")

# every encoding written out: (kind, include_length, swap_ortho, pairs);
# only the ortho model reads swap_ortho
SPEC_TABLE = [
    ("surprisal", True, None, (_S, _F, _L)),
    ("surprisal", False, None, (_S, _F)),
    ("surprisal", True, "frequency", (_S, _F, _L)),
    ("surprisal", False, "frequency", (_S, _F)),
    ("pmi", True, None, (_P, _F, _L)),
    ("pmi", False, None, (_P, _F)),
    ("pmi", True, "frequency", (_P, _F, _L)),
    ("pmi", False, "frequency", (_P, _F)),
    ("ortho", True, None, (_ORTHO_S, _F, ("ortho_length", "length", "frequency"))),
    ("ortho", False, None, (_ORTHO_S, _F)),
    ("ortho", True, "frequency", (_S, _ORTHO_F, ("ortho_length", "length", "surprisal"))),
    ("ortho", False, "frequency", (_S, _ORTHO_F)),
]


class TestModelSpec:
    @pytest.mark.parametrize("kind, include_length, swap_ortho, pairs", SPEC_TABLE)
    def test_rule_matches_written_out_table(self, kind, include_length, swap_ortho, pairs):
        spec = model_spec(kind, include_length, swap_ortho)
        assert spec.name == kind
        assert spec.pairs == pairs

    def test_surprisal_spec(self):
        spec = model_spec("surprisal", True, None)
        assert [p[0] for p in spec.pairs] == ["surprisal", "frequency", "length"]
        assert all(p[2] is None for p in spec.pairs)

    def test_ortho_spec_anchors_on_frequency(self):
        spec = model_spec("ortho", True, None)
        assert spec.pairs == (
            ("ortho_surprisal", "surprisal", "frequency"),
            ("frequency", "frequency", None),
            ("ortho_length", "length", "frequency"),
        )

    def test_swap_moves_the_anchor_to_surprisal(self):
        spec = model_spec("ortho", True, "frequency")
        assert spec.pairs == (
            ("surprisal", "surprisal", None),
            ("ortho_frequency", "frequency", "surprisal"),
            ("ortho_length", "length", "surprisal"),
        )

    def test_no_length(self):
        spec = model_spec("pmi", False, None)
        assert [p[0] for p in spec.pairs] == ["pmi", "frequency"]

    def test_unknown_kind_rejected(self):
        # the message of the --predictors check, the one rule for a kind
        with pytest.raises(ConfigError, match="^unknown predictor set 'entropy'; choose from"):
            model_spec("entropy", True, None)

    def test_unknown_swap_target_rejected(self):
        with pytest.raises(ConfigError):
            model_spec("ortho", True, "length")


class TestSpanEquality:
    """The three models are reparameterizations of one column space."""

    def test_training_r2_identical_across_models(self, result):
        r2 = {
            m["model"]: [f["r2"] for f in m["folds"]]
            for m in result["models"]
        }
        surp = np.array(r2["surprisal"])
        assert np.max(np.abs(surp - np.array(r2["pmi"]))) < 1e-10
        assert np.max(np.abs(surp - np.array(r2["ortho"]))) < 1e-10

    def test_heldout_delta_identical_across_models(self, result):
        deltas = {
            m["model"]: [f["delta_llh"] for f in m["folds"]]
            for m in result["models"]
        }
        surp = np.array(deltas["surprisal"])
        assert np.max(np.abs(surp - np.array(deltas["pmi"]))) < 1e-8
        assert np.max(np.abs(surp - np.array(deltas["ortho"]))) < 1e-8

    def test_decompositions_differ(self, result):
        shares = {
            m["model"]: dict(zip(m["lmg"]["groups"], m["lmg"]["shares"]))
            for m in result["models"]
        }
        assert shares["surprisal"]["surprisal"] != pytest.approx(
            shares["pmi"]["pmi"], abs=1e-3
        )
        assert shares["ortho"]["frequency"] > shares["surprisal"]["frequency"]


class TestReportStructure:
    def test_row_accounting(self, result, synth):
        rep = result
        assert rep["n_rows"] + rep["n_dropped_document_initial"] == len(
            synth.observations
        )
        assert rep["n_dropped_document_initial"] == 40  # one per document
        assert rep["n_dropped_unread"] == 0

    def test_ortho_columns_uncorrelated_with_anchor(self, result):
        diag = result["ortho_train_correlations"]
        assert diag  # ortho model ran
        assert max(abs(v) for v in diag.values()) < 1e-10

    def test_equivalence_deltas_small(self, result):
        deltas = result["equivalence"]["deltas"]
        assert deltas["r2"] < 1e-10
        assert deltas["beta_pmi_vs_neg_surprisal"] < 1e-8
        assert deltas["beta_frequency_shift"] < 1e-8

    def test_informative_predictors_beat_baseline(self, result):
        for m in result["models"]:
            assert m["delta_llh"]["mean"] > 0.0
            assert m["delta_llh"]["se"] > 0.0

    def test_lmg_shares_sum_to_training_r2(self, result):
        for m in result["models"]:
            assert sum(m["lmg"]["shares"]) == pytest.approx(
                m["lmg"]["total_r2"], abs=1e-8
            )

    def test_lmg_rows_cover_models_groups_folds(self, result):
        rows = list(_lmg_rows(result))
        assert len(rows) == 3 * FOLDS * 3
        assert {r[0] for r in rows} == {"surprisal", "pmi", "ortho"}
        assert {r[2] for r in rows} == set(range(FOLDS))

    def test_raw_scale_coeffs_only_for_unresidualized_models(self, result):
        by_name = {m["model"]: m for m in result["models"]}
        assert by_name["surprisal"]["folds"][0]["coeffs_raw"] is not None
        assert by_name["pmi"]["folds"][0]["coeffs_raw"] is not None
        assert by_name["ortho"]["folds"][0]["coeffs_raw"] is None


class TestRawScaleFits:
    """Raw-unit read-outs must match fits built outside the pipeline."""

    COLS = [
        "surprisal",
        "frequency",
        "length",
        "prev_surprisal",
        "prev_frequency",
        "prev_length",
    ]

    def test_pooled_raw_matches_direct_fit(self, result, usable_rows):
        raw = table_columns(usable_rows, self.COLS)
        y = usable_rows["rt_ms"]
        direct = fit_columns({c: raw[c] for c in self.COLS}, y)
        pooled = next(
            m for m in result["models"] if m["model"] == "surprisal"
        )["pooled_raw"]
        for label, value in direct.coef_dict().items():
            assert pooled["coeffs"][label] == pytest.approx(value, abs=1e-8)
        assert pooled["r2"] == pytest.approx(direct.r2, abs=1e-12)

    def test_fold_coeffs_raw_match_direct_training_fit(self, result, usable_rows):
        assignment = kfold(len(usable_rows), FOLDS, SEED)
        tr = assignment.train_idx(0)
        raw = table_columns(usable_rows, self.COLS)
        y = usable_rows["rt_ms"]
        direct = fit_columns({c: raw[c][tr] for c in self.COLS}, y[tr])
        fold0 = next(
            m for m in result["models"] if m["model"] == "surprisal"
        )["folds"][0]
        for label, value in direct.coef_dict().items():
            assert fold0["coeffs_raw"][label] == pytest.approx(value, abs=1e-8)

    def test_pooled_raw_recovers_truth_within_three_se(self, result):
        pooled = next(
            m for m in result["models"] if m["model"] == "surprisal"
        )["pooled_raw"]
        for name in ("surprisal", "frequency", "length", "intercept"):
            est = pooled["coeffs"][name]
            se = pooled["std_errors"][name]
            assert abs(est - TRUE_COEFFS[name]) < 3.0 * se, name


class TestOptions:
    def test_predictor_subset(self, mixture_lm, synth):
        res = analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=3,
            predictors=("pmi",),
        )
        assert [m["model"] for m in res["models"]] == ["pmi"]

    def test_no_length_drops_the_columns(self, mixture_lm, synth):
        res = analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=3,
            predictors=("surprisal",), include_length=False,
        )
        cols = res["models"][0]["columns"]
        assert "length" not in cols and "prev_length" not in cols

    def test_swap_ortho_labels(self, mixture_lm, synth):
        res = analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=3,
            predictors=("ortho",), swap_ortho="frequency",
        )
        cols = res["models"][0]["columns"]
        assert "ortho_frequency" in cols and "surprisal" in cols
        diag = res["ortho_train_correlations"]
        assert all("ortho_" in k for k in diag)
        assert "ortho:ortho_frequency" in diag

    @pytest.mark.parametrize("predictors", [("surprisal",), ("pmi",), MODEL_KINDS])
    def test_unknown_swap_target_rejected_whatever_the_selection(
        self, mixture_lm, synth, predictors
    ):
        with pytest.raises(ConfigError, match="swap-ortho target 'bogus'"):
            analyze_observations(
                mixture_lm, synth.observations, seed=SEED, folds=3,
                predictors=predictors, swap_ortho="bogus",
            )

    def test_document_folds(self, mixture_lm, synth):
        res = analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=4,
            fold_by="document",
        )
        assert res["fold_mode"] == "document"

    def test_separate_grouping_splits_spillover(self, mixture_lm, synth):
        res = analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=3,
            predictors=("surprisal",), lmg_grouping="separate",
        )
        groups = res["models"][0]["lmg"]["groups"]
        assert "prev_surprisal" in groups and len(groups) == 6

    def test_too_few_rows_rejected(self, mixture_lm):
        tiny = observation_table([("p0", "d0", 0, i, "a", 200.0, False) for i in range(4)])
        with pytest.raises(ConfigError, match="usable rows"):
            analyze_observations(mixture_lm, tiny, seed=0, folds=10)

    def test_unknown_predictor_kind(self, mixture_lm, synth):
        with pytest.raises(ConfigError, match="predictor set"):
            analyze_observations(
                mixture_lm, synth.observations, seed=0, predictors=("entropy",)
            )

    @pytest.mark.parametrize("selection", [("ortho", "ortho"), ()])
    def test_duplicate_or_empty_selection_rejected(self, mixture_lm, synth, selection):
        # a repeat would report one model twice, an empty one no model
        aggregated = aggregate_participants(synth.observations)
        with pytest.raises(ConfigError, match="predictor selection"):
            analyze_tokens(mixture_lm, aggregated, seed=0, predictors=selection)

    def test_determinism(self, mixture_lm, synth):
        a = analyze_observations(mixture_lm, synth.observations, seed=3, folds=3)
        b = analyze_observations(mixture_lm, synth.observations, seed=3, folds=3)
        assert a == b


class TestOneFactorization:
    """Each fold fit is factorized once: its R-squared, standard errors,
    condition gate and variance shares all read one QR triangle."""

    def test_fold_r2_is_lmg_total(self, mixture_lm, synth, monkeypatch):
        # lmg.csv writes a fold entry's r2 as the fold's LMG total: every
        # fold fit's R-squared is its decomposition's total, to the bit
        totals = []

        def recording(triangle, groups):
            report = lmg(triangle, groups)
            assert report.total_r2 == triangle.fit().r2
            totals.append(report.total_r2)
            return report

        monkeypatch.setattr(pipeline, "lmg", recording)
        for options in ({}, {"lmg_grouping": "separate"}, {"swap_ortho": "frequency"}):
            totals.clear()
            res = analyze_observations(
                mixture_lm, synth.observations, seed=SEED, folds=FOLDS, **options
            )
            # the linear folds run in this process, fold by fold, model by model
            r2 = [model["folds"][f]["r2"] for f in range(FOLDS) for model in res["models"]]
            assert totals == r2

    def test_one_n_row_factorization_per_fit(self, mixture_lm, synth, monkeypatch):
        # the row count of every matrix each routine is called on
        linalg = {"qr": [], "lstsq": [], "inv": []}

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapped(a, *args, **kwargs):
                linalg[name].append(np.shape(a)[0])
                return original(a, *args, **kwargs)

            return wrapped

        for name in linalg:
            monkeypatch.setattr(np.linalg, name, counting(name))
        folds = 10
        res = analyze_observations(mixture_lm, synth.observations, seed=SEED, folds=folds)
        n = res["n_rows"]
        models = len(MODEL_KINDS)
        fold_sizes = np.bincount(kfold(n, folds, SEED).fold_of_row).tolist()
        # every other QR is of a stack of at most folds triangles of U
        width = 2 + len(PREDICTOR_NAMES)
        small = folds * width
        assert max(fold_sizes) > small
        # one QR of each fold's test rows and the equivalence check's two fits
        assert sorted(m for m in linalg["qr"] if m > small) == sorted(fold_sizes + [n] * 2)
        # per fold, the training stack and one small QR per model; the
        # all-rows stack and one small QR per pooled fit
        assert sum(1 for m in linalg["qr"] if m <= small) == (folds + 1) * (1 + models)
        # every other solve is on the (k+1)-row triangle
        k = 1 + len(res["models"][0]["columns"])
        assert linalg["lstsq"] and max(linalg["lstsq"]) <= k + 1
        assert linalg["inv"] and max(linalg["inv"]) <= k


class TestNrowReference:
    """Every linear fold number equals the n-row recipe's, from
    ``oracles.nrow_fold``, to rounding."""

    @pytest.mark.parametrize("swap", [None, "frequency"])
    def test_fold_numbers_match(self, mixture_lm, synth, usable_rows, swap):
        result = analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=FOLDS, swap_ortho=swap
        )
        raw = table_columns(usable_rows, PREDICTOR_NAMES)
        y = usable_rows["rt_ms"]
        assignment = kfold(len(usable_rows), FOLDS, SEED)
        for model in result["models"]:
            spec = model_spec(model["model"], True, swap)
            for f, entry in enumerate(model["folds"]):
                ref = nrow_fold(
                    raw, y, assignment.train_idx(f), assignment.test_idx(f),
                    list(_design_columns(spec)),
                )
                assert entry["r2"] == pytest.approx(ref["r2"], rel=1e-13)
                assert entry["coeffs"] == pytest.approx(ref["coeffs"], rel=1e-10, abs=1e-11)
                assert entry["llh"] == pytest.approx(ref["llh"], rel=1e-13)
                assert entry["delta_llh"] == pytest.approx(ref["delta_llh"], rel=1e-10, abs=1e-13)
                for label, corr in ref["anchor_corr"].items():
                    assert abs(corr) < 1e-13
                    key = f"{spec.name}:{label}"
                    assert abs(result["ortho_train_correlations"][key]) < 1e-13


class TestPooledReference:
    """Every pooled fit, read off the all-rows triangle, equals the n-row
    recipe's, from ``oracles.nrow_pooled``, to rounding."""

    @pytest.mark.parametrize("swap, include_length", [
        (None, True), ("frequency", True), (None, False),
    ])
    def test_pooled_raw_matches(self, mixture_lm, synth, usable_rows, swap, include_length):
        result = analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=FOLDS, swap_ortho=swap,
            include_length=include_length,
        )
        raw = table_columns(usable_rows, PREDICTOR_NAMES)
        y = usable_rows["rt_ms"]
        for model in result["models"]:
            spec = model_spec(model["model"], include_length, swap)
            ref = nrow_pooled(raw, y, _design_columns(spec))
            pooled = model["pooled_raw"]
            assert list(pooled["coeffs"]) == list(ref.labels)
            assert pooled["coeffs"] == pytest.approx(ref.coef_dict(), rel=1e-10, abs=1e-11)
            assert pooled["std_errors"] == pytest.approx(
                dict(zip(ref.labels, ref.std_errors)), rel=1e-10, abs=1e-11
            )
            assert pooled["r2"] == pytest.approx(ref.r2, rel=1e-10, abs=1e-11)


class TestPooledGate:
    """The pooled fits gate on the centred design in original units, so
    where a source's zero lies moves no gate: every fold fits the data
    below, and the pooled fits once refused them (condition 1.853e10)."""

    def test_shifted_frequency_moves_only_the_intercept(self, continuous, tmp_path):
        obs, recs = continuous
        shift = 1e5
        shifted = with_columns(recs, frequency=recs["frequency"] + shift)
        runs = [
            analyze_observations(external_source(r, tmp_path / f"{i}.tsv"), obs, seed=2, folds=4)
            for i, r in enumerate((recs, shifted))
        ]
        # pmi is frequency - surprisal, so it moves with frequency too
        moved = {"frequency", "prev_frequency", "pmi", "prev_pmi"}
        for base, model in zip(*(run["models"] for run in runs)):
            before, after = base["pooled_raw"], model["pooled_raw"]
            slopes = [label for label in before["coeffs"] if label != "intercept"]
            for label in slopes:
                assert after["coeffs"][label] == pytest.approx(before["coeffs"][label], rel=1e-9)
                assert after["std_errors"][label] == pytest.approx(
                    before["std_errors"][label], rel=1e-9
                )
            drop = shift * sum(before["coeffs"][label] for label in slopes if label in moved)
            assert after["coeffs"]["intercept"] == pytest.approx(
                before["coeffs"]["intercept"] - drop, rel=1e-9
            )
            assert after["r2"] == pytest.approx(before["r2"], rel=1e-9)


class TestConstantSources:
    """A source that is constant on a fold's training rows is refused by
    name, decided exactly from the folds' least and greatest values."""

    def test_constant_tenth_is_refused_by_name(self, continuous, tmp_path):
        # np.std of many copies of 0.1 need not be 0
        obs, recs = continuous
        source = external_source(
            with_columns(recs, frequency=np.full(len(recs), 0.1)), tmp_path / "pred.tsv"
        )
        with pytest.raises(DegenerateError, match="^frequency: zero or non-finite variance$"):
            analyze_observations(source, obs, seed=2, folds=4)

    def test_constant_on_one_folds_training_rows(self, continuous, tmp_path):
        # frequency varies in one document only: the fold that holds it
        # out trains on a constant
        obs, recs = continuous
        frequency = np.where(recs["doc"] == 0, recs["frequency"], 0.1)
        source = external_source(with_columns(recs, frequency=frequency), tmp_path / "pred.tsv")
        assert analyze_observations(source, obs, seed=2, folds=4)  # token folds
        with pytest.raises(DegenerateError, match="^frequency: zero or non-finite variance$"):
            analyze_observations(source, obs, seed=2, folds=4, fold_by="document")


class TestRankRefusalNote:
    def test_no_note_where_every_rows_design_is_singular(self, tmp_path):
        # every token a type of its own, and frequency affine in surprisal:
        # fold 0's test rows hold 47 types its training rows lack, but the
        # design is singular on all rows, so no type is to blame
        obs, recs = continuous_tables(17, 12, 40, tokens=lambda d, t: f"w{d}.{t}")
        source = external_source(
            with_columns(recs, frequency=2.0 * recs["surprisal"] + 1.0), tmp_path / "pred.tsv"
        )
        with pytest.raises(RankDeficiencyError) as exc:
            analyze_observations(source, obs, seed=2, folds=10)
        message = str(exc.value)
        assert message.startswith("fold 0, model surprisal:")
        assert message.endswith("near-dependent columns: frequency, prev_frequency")

    def test_names_at_most_five_lacking_types(self, tmp_path):
        # fold 0's 47 test rows hold 47 types of their own; its training
        # rows hold only 'a' and 'bb', on which frequency and length are
        # collinear, while all rows' design is full rank
        fold0 = kfold(12 * 39, 10, 2).fold_of_row == 0

        def tokens(d, t):
            if t > 0 and fold0[d * 39 + t - 1]:
                return "x" * (1 + (d + t) % 4) + f"{d}.{t}"
            return "a" if (3 * d + t) % 5 < 3 else "bb"

        obs, recs = continuous_tables(17, 12, 40, tokens=tokens)
        token = np.array(recs.decode("token"))
        frequency = np.where(token == "a", 1.0, np.where(token == "bb", 3.0, recs["frequency"]))
        source = external_source(with_columns(recs, frequency=frequency), tmp_path / "pred.tsv")
        with pytest.raises(RankDeficiencyError) as exc:
            analyze_observations(source, obs, seed=2, folds=10)
        message = str(exc.value)
        assert message.startswith("fold 0, model surprisal:")
        assert "near-dependent columns: length;" in message
        note = message.split("; the fold's training rows hold no ", 1)[1]
        names, count = note.split(" (")
        lacking = [tokens(d, t) for d in range(12) for t in range(1, 40) if fold0[d * 39 + t - 1]]
        assert names.split(", ") == sorted(map(repr, lacking))[:5]
        assert count == "47 types in all)"


def continuous_tables(seed, n_docs, doc_len, tokens=None):
    """Readings and external predictors with a nonlinear surprisal effect;
    ``tokens(d, t)``, if given, names the token at position t of document d."""
    rng = np.random.default_rng(seed)
    obs, recs = [], []
    for d in range(n_docs):
        doc = f"doc{d:03d}"
        for t in range(doc_len):
            surp = float(rng.gamma(4.0, 0.8))
            freq = float(rng.gamma(5.0, 0.5))
            token = "w" * int(rng.integers(1, 7))
            if tokens is not None:
                token = tokens(d, t)
            rt = 180.0 + 30.0 * np.sin(surp) + 8.0 * freq + rng.normal(0.0, 5.0)
            obs.append(("p0", doc, 0, t, token, float(rt), False))
            recs.append((doc, t, token, surp, freq))
    doc_id, token_idx, token, surp, freq = zip(*recs)
    table = table_from_lists(
        doc_id=doc_id, token_idx=np.array(token_idx), token=token,
        surprisal=np.array(surp), frequency=np.array(freq),
    )
    return observation_table(obs), table


def external_source(recs, path):
    write_external_tsv(recs, path)
    return parse_external_tsv(path)


def column_maps(u, assignment, specs) -> dict:
    """The column map of each (fold, model) of the fold loop, from U and
    the fold triangles as the library makes them."""
    parts = [pipeline._FoldRows.of(u[assignment.test_idx(f)]) for f in range(assignment.k)]
    return {
        (f, spec.name): pipeline._model_map(
            pipeline._FoldRows.merge([p for g, p in enumerate(parts) if g != f]), spec
        )[0]
        for f in range(assignment.k) for spec in specs
    }


def with_columns(recs, **columns):
    """``recs`` with the named columns replaced."""
    return TokenTable({**recs.columns, **columns}, recs.doc_ids, recs.types, recs.participants)


@pytest.fixture(scope="module")
def continuous():
    return continuous_tables(17, 12, 40)


@pytest.fixture(scope="module")
def smooth_result(continuous, tmp_path_factory):
    obs, recs = continuous
    source = external_source(recs, tmp_path_factory.mktemp("ext") / "pred.tsv")
    return analyze_observations(
        source, obs, seed=2, folds=4, predictors=("surprisal",), smooth=True
    )


class TestSmoothPath:
    """Spline models run per fold on continuous external predictors."""

    def test_smooth_entries_follow_linear_ones(self, smooth_result):
        names = [m["model"] for m in smooth_result["models"]]
        assert names == ["surprisal", "surprisal_smooth"]
        kinds = [m["kind"] for m in smooth_result["models"]]
        assert kinds == ["linear", "smooth"]

    def test_smooth_beats_linear_on_nonlinear_truth(self, smooth_result):
        linear, smooth = smooth_result["models"]
        assert smooth["delta_llh"]["mean"] > linear["delta_llh"]["mean"]

    def test_term_summaries_present(self, smooth_result):
        fold0 = smooth_result["models"][1]["folds"][0]
        terms = {t["term"] for t in fold0["terms"]}
        assert "surprisal" in terms and "prev_surprisal" in terms
        for t in fold0["terms"]:
            assert t["edf"] > 0.0


class TestSharedSmoothBlocks:
    """The models of a fold share its smooth terms, and the fold holds a
    term only from its first reader's fit until its last reader's; each
    smooth fit must equal a fit of its own on that model's fold columns."""

    def test_one_term_per_label_per_fold(self, mixture_lm, synth, monkeypatch):
        fit, labels = SmoothTerm.fit, []

        def counted(cls, name, x, k):
            labels.append(name)
            return fit(name, x, k)

        monkeypatch.setattr(SmoothTerm, "fit", classmethod(counted))
        monkeypatch.setattr(pipeline, "_fold_workers", lambda folds: 1)
        analyze_observations(mixture_lm, synth.observations, seed=SEED, folds=4, smooth=True)
        distinct = {
            label for kind in MODEL_KINDS
            for label, _, _ in _design_columns(model_spec(kind, True, None))
        }
        assert len(distinct) == 12 and len(labels) == 48
        assert [set(labels[f * 12:(f + 1) * 12]) for f in range(4)] == [distinct] * 4

    # (options, most terms live at once): the terms each model fits
    # first and those a later model still reads
    LIVE_CASES = {
        "default": (dict(), 6),
        "ortho_first": (dict(predictors=("ortho", "pmi", "surprisal")), 6),
        # the ortho model reads the surprisal model's terms: 8 at the pmi fit
        "swap": (dict(swap_ortho="frequency"), 8),
    }

    @pytest.mark.parametrize("case", LIVE_CASES)
    def test_live_terms_are_those_still_read(self, case, mixture_lm, synth, monkeypatch):
        options, most = self.LIVE_CASES[case]
        fit, fit_smooth = SmoothTerm.fit, pipeline.fit_smooth
        fitted: list[tuple[str, weakref.ref]] = []
        live_at_fits: list[list[str]] = []

        def tracked(cls, name, x, k):
            term = fit(name, x, k)
            fitted.append((name, weakref.ref(term)))
            return term

        def counted(terms, y, **kwargs):
            live_at_fits.append(sorted(name for name, ref in fitted if ref() is not None))
            return fit_smooth(terms, y, **kwargs)

        monkeypatch.setattr(SmoothTerm, "fit", classmethod(tracked))
        monkeypatch.setattr(pipeline, "fit_smooth", counted)
        monkeypatch.setattr(pipeline, "_fold_workers", lambda folds: 1)
        analyze_observations(
            mixture_lm, synth.observations, seed=SEED, folds=4, smooth=True, **options
        )
        specs = [
            model_spec(kind, True, options.get("swap_ortho"))
            for kind in options.get("predictors", MODEL_KINDS)
        ]
        reads = [{label for label, _, _ in _design_columns(spec)} for spec in specs]
        # the labels fitted so far that this model or a later one reads
        expected = [
            sorted(set().union(*reads[:i + 1]) & set().union(*reads[i:]))
            for i in range(len(reads))
        ]
        assert live_at_fits == expected * 4
        assert max(map(len, live_at_fits)) == most

    # (source fixture, options): a source whose columns are continuous,
    # and a model order in which the terms are released in another order
    OTHER_CASES = {
        "external_separate": ("continuous", dict(lmg_grouping="separate")),
        "ortho_first": ("mixture", dict(predictors=("ortho", "pmi", "surprisal"))),
        "ortho_first_swap": ("mixture", dict(predictors=("ortho", "surprisal"),
                                             swap_ortho="frequency")),
    }

    @pytest.mark.parametrize("swap", [None, "frequency"])
    def test_fits_equal_unshared_fits(self, mixture_lm, synth, usable_rows, swap):
        self.assert_fits_equal_unshared_fits(
            mixture_lm, synth.observations, usable_rows, swap_ortho=swap
        )

    @pytest.mark.parametrize("case", OTHER_CASES)
    def test_fits_equal_unshared_fits_on_other_sources_and_orders(
        self, case, mixture_lm, synth, continuous, tmp_path
    ):
        source_name, options = self.OTHER_CASES[case]
        if source_name == "continuous":
            observations, recs = continuous
            source = external_source(recs, tmp_path / "pred.tsv")
        else:
            observations, source = synth.observations, mixture_lm
        records = build_predictor_table(aggregate_participants(observations), source)
        rows = records.take(~np.isnan(records["prev_surprisal"]) & ~np.isnan(records["rt_ms"]))
        self.assert_fits_equal_unshared_fits(source, observations, rows, **options)

    @staticmethod
    def assert_fits_equal_unshared_fits(source, observations, usable_rows, **options):
        """Each model's smooth fold entries equal those of a fit with terms
        of its own on the model's fold columns of ``usable_rows``."""
        result = analyze_observations(
            source, observations, seed=SEED, folds=FOLDS, smooth=True, **options
        )
        models = {m["model"]: m for m in result["models"]}
        u = pipeline._usable_rows(aggregate_participants(observations), source)[0]
        y = usable_rows["rt_ms"]
        assignment = kfold(len(usable_rows), FOLDS, SEED)
        specs = [
            model_spec(kind, True, options.get("swap_ortho"))
            for kind in options.get("predictors", MODEL_KINDS)
        ]
        maps = column_maps(u, assignment, specs)
        for f in range(FOLDS):
            tr, te = assignment.train_idx(f), assignment.test_idx(f)
            for spec in specs:
                kind = spec.name
                cols_tr = pipeline._columns(spec, u, maps[f, kind], tr)
                cols_te = pipeline._columns(spec, u, maps[f, kind], te)
                fit = smooth_fit(cols_tr, y[tr])
                delta = heldout_delta(y[tr], fit.residual_variance, y[te], fit.predict(cols_te))
                entry = models[f"{spec.name}_smooth"]["folds"][f]
                assert entry["r2"] == fit.r2
                assert entry["terms"] == fit.term_summary()
                # the baseline's training mean and variance come from the
                # training triangle, not from the rows
                assert entry["delta_llh"] == pytest.approx(delta.per_token, rel=1e-12)


class TestParallelFolds:
    """Folds run by worker processes give exactly the reports of folds run
    in this process, and leave no process behind."""

    CASES = {
        "token": ("mixture_lm", dict(folds=5)),
        "document": ("mixture_lm", dict(folds=4, fold_by="document")),
        "separate": ("mixture_lm", dict(folds=5, lmg_grouping="separate",
                                        swap_ortho="frequency")),
        "smooth": ("mixture_lm", dict(folds=4, smooth=True)),
        "smooth_external": ("continuous_source", dict(folds=4, smooth=True,
                                                      lmg_grouping="separate")),
    }

    @pytest.fixture(scope="class")
    def continuous_source(self, continuous, tmp_path_factory):
        return external_source(continuous[1], tmp_path_factory.mktemp("ext") / "pred.tsv")

    @pytest.mark.parametrize("case", CASES)
    def test_reports_equal_for_one_and_two_workers(
        self, case, request, synth, continuous, monkeypatch
    ):
        source_name, options = self.CASES[case]
        source = request.getfixturevalue(source_name)
        observations = synth.observations if source_name == "mixture_lm" else continuous[0]
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(pipeline, "_fold_workers", lambda folds: workers)
            results.append(analyze_observations(source, observations, seed=SEED, **options))
        serial, parallel = results
        assert parallel == serial
        assert not multiprocessing.active_children()

    def test_default_workers_are_the_usable_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert pipeline._fold_workers(10) == min(10, cpus)
        assert pipeline._fold_workers(1) == 1

    def test_linear_folds_start_no_process(self, mixture_lm, synth, monkeypatch):
        def no_fork():
            raise AssertionError("a linear analysis forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(pipeline, "_fold_workers", lambda folds: 2)
        for options in ({}, {"lmg_grouping": "separate", "fold_by": "document"}):
            assert analyze_observations(
                mixture_lm, synth.observations, seed=SEED, folds=4, **options
            )

    def test_lowest_failing_fold_is_raised(self, mixture_lm, synth, monkeypatch):
        run_fold = pipeline._run_fold

        def failing(context, f):
            if f >= 2:
                raise RankDeficiencyError(f"fold {f} in {os.getpid()}", columns=[f"c{f}"])
            return run_fold(context, f)

        monkeypatch.setattr(pipeline, "_run_fold", failing)
        monkeypatch.setattr(pipeline, "_fold_workers", lambda folds: 2)
        with pytest.raises(RankDeficiencyError) as exc:
            # smooth fits run the folds in the workers
            analyze_observations(mixture_lm, synth.observations, seed=SEED, folds=5, smooth=True)
        message = str(exc.value)
        assert message.startswith("fold 2 in ") and exc.value.columns == ["c2"]
        # raised in a worker, not here
        assert message != f"fold 2 in {os.getpid()}"
        assert not multiprocessing.active_children()


class TestSmallTestFolds:
    """Test folds with fewer rows than design columns are still scored,
    and each fold's held-out log-likelihood is the mean log density of
    its test rows."""

    def test_llh_equals_direct_recomputation(self, tmp_path):
        obs, recs = continuous_tables(31, 3, 20)
        source = external_source(recs, tmp_path / "pred.tsv")
        folds, seed = 10, 4
        result = analyze_observations(
            source, obs, seed=seed, folds=folds, predictors=MODEL_KINDS, smooth=True
        )
        models = {m["model"]: m for m in result["models"]}
        rows = build_predictor_table(aggregate_participants(obs), source)
        rows = rows.take(~np.isnan(rows["prev_surprisal"]))
        raw = table_columns(rows, PREDICTOR_NAMES)
        u = pipeline._usable_rows(aggregate_participants(obs), source)[0]
        y = rows["rt_ms"]
        assignment = kfold(len(rows), folds, seed)
        specs = [model_spec(kind, True, None) for kind in MODEL_KINDS]
        maps = column_maps(u, assignment, specs)
        for f in range(folds):
            tr, te = assignment.train_idx(f), assignment.test_idx(f)
            for spec in specs:
                kind = spec.name
                columns = list(_design_columns(spec))
                assert te.size < 1 + len(columns)
                ref = nrow_fold(raw, y, tr, te, columns)
                assert models[kind]["folds"][f]["llh"] == pytest.approx(ref["llh"], rel=1e-12)
                sfit = smooth_fit(pipeline._columns(spec, u, maps[f, kind], tr), y[tr])
                pred = sfit.predict(pipeline._columns(spec, u, maps[f, kind], te))
                sllh = [normal_logpdf(v, m, sfit.residual_variance) for v, m in zip(y[te], pred)]
                entry = models[f"{kind}_smooth"]["folds"][f]
                assert entry["llh"] == pytest.approx(float(np.mean(sllh)), rel=1e-12)


class TestUnreadTokens:
    """Tokens nobody read are scored as text, then dropped and counted."""

    def test_dropped_after_scoring(self, mixture_lm, synth):
        obs = synth.observations
        skipped = obs["token_idx"] % 7 == 3
        skipping = TokenTable(
            {**obs.columns, "skipped": skipped}, obs.doc_ids, obs.types, obs.participants
        )
        res = analyze_observations(mixture_lm, skipping, seed=SEED, folds=3,
                                   predictors=("surprisal",))
        rep = res
        assert rep["n_dropped_unread"] == int(np.count_nonzero(skipped))
        assert rep["n_dropped_document_initial"] == 40
        assert rep["n_rows"] + rep["n_dropped_unread"] + 40 == len(obs)

        # the pooled fit uses the full text's scores on the rows that were read
        full = build_predictor_table(aggregate_participants(obs), mixture_lm)
        keep = ~np.isnan(full["prev_surprisal"]) & ~(full["token_idx"] % 7 == 3)
        cols = TestRawScaleFits.COLS
        direct = fit_columns({c: full[c][keep] for c in cols}, full["rt_ms"][keep])
        pooled = rep["models"][0]["pooled_raw"]["coeffs"]
        for label, value in direct.coef_dict().items():
            assert pooled[label] == pytest.approx(value, abs=1e-8)
