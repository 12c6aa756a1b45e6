"""OLS core, delta log-likelihood, variance shares, model identities."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import heldout_delta
from oracles import (
    fit_columns,
    lmg_by_orderings,
    lstsq_rsquared,
    normal_logpdf,
    pinv_ols,
    rsquared,
)
from ctxpred.errors import (
    AlignmentError,
    ConfigError,
    DegenerateError,
    IdentityError,
    RankDeficiencyError,
    SizeError,
)
from ctxpred.regression import (
    COEF_TOL,
    VARIANCE_FLOOR,
    DesignMatrix,
    Triangle,
    delta_loglik,
    equivalence_report,
    lmg,
    ols_fit,
    residualization_triplet,
)


def factor(cols, y):
    return Triangle.factor(DesignMatrix.build(cols), y)


def random_table(rng, n=60, p=3, noise=1.0):
    x = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    y = 2.0 + x @ beta + noise * rng.normal(size=n)
    cols = {f"x{i}": x[:, i] for i in range(p)}
    return cols, y


class TestOls:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_pseudoinverse(self, seed):
        rng = np.random.default_rng(seed)
        cols, y = random_table(rng)
        design = DesignMatrix.build(cols)
        fit = ols_fit(design, y)
        beta_ref = pinv_ols(design.matrix, y)
        assert np.allclose(fit.coefficients, beta_ref, atol=1e-10)
        x = np.column_stack(list(cols.values()))
        assert fit.r2 == pytest.approx(rsquared(x, y), abs=1e-12)

    def test_simple_regression_closed_form(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 3.0, 4.0, 7.0, 8.0])
        fit = fit_columns({"x": x}, y)
        slope = np.cov(x, y, ddof=1)[0, 1] / np.var(x, ddof=1)
        assert fit.coef("x") == pytest.approx(slope, abs=1e-12)
        assert fit.coef("intercept") == pytest.approx(
            y.mean() - slope * x.mean(), abs=1e-12
        )
        # textbook standard error of the slope
        resid = y - fit.coef("intercept") - fit.coef("x") * x
        s2 = float(resid @ resid) / (len(y) - 2)
        se_slope = math.sqrt(s2 / float(np.sum((x - x.mean()) ** 2)))
        assert fit.std_errors[1] == pytest.approx(se_slope, rel=1e-12)

    def test_perfect_fit_hits_variance_floor(self):
        x = np.arange(10.0)
        y = 3.0 - 0.5 * x
        fit = fit_columns({"x": x}, y)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_variance == VARIANCE_FLOOR

    def test_constant_response_r2_zero(self):
        rng = np.random.default_rng(0)
        fit = fit_columns({"x": rng.normal(size=12)}, np.full(12, 5.0))
        assert fit.r2 == 0.0

    def test_duplicate_column_rejected_by_name(self):
        x = np.random.default_rng(1).normal(size=30)
        design = DesignMatrix.build({"a": x, "b": x.copy()})
        with pytest.raises(RankDeficiencyError) as err:
            ols_fit(design, np.arange(30.0))
        assert set(err.value.columns) & {"a", "b"}

    @pytest.mark.parametrize("seed", range(4))
    def test_later_of_two_identical_columns_is_named(self, seed):
        # the culprits are read off the fit's own triangle in design
        # order: the repeat adds nothing to the span before it, whatever
        # the row order
        rng = np.random.default_rng(seed)
        w, x, y = rng.normal(size=(3, 50))
        for order in (np.arange(50), rng.permutation(50), np.arange(50)[::-1]):
            for first, later in (("a", "b"), ("b", "a")):
                design = DesignMatrix.build(
                    {"w": w[order], first: x[order], later: x[order].copy()}
                )
                with pytest.raises(RankDeficiencyError) as err:
                    ols_fit(design, y[order])
                assert err.value.columns == [later]
                assert str(err.value).endswith(f"near-dependent columns: {later}")

    @pytest.mark.parametrize("seed", range(6))
    def test_weakest_column_is_named_when_none_is_dependent(self, seed):
        # a condition number near 1e11 from the scales alone: no column
        # lies within 1e-10 of the span of those before it, so the gate
        # names the one with the least relative residual on that span
        rng = np.random.default_rng(seed)
        big, small, y = rng.normal(size=(3, 50))
        cols = {"big": big * 1e6, "small": small * 1e-5}
        with pytest.raises(RankDeficiencyError) as err:
            fit_columns(cols, y)
        before = np.ones((50, 1))
        ratios = {}
        for label, x in cols.items():
            resid = x - before @ np.linalg.lstsq(before, x, rcond=None)[0]
            ratios[label] = np.linalg.norm(resid) / np.linalg.norm(x)
            before = np.column_stack([before, x])
        assert min(ratios.values()) > 1e-10
        assert err.value.columns == [min(ratios, key=ratios.get)]

    def test_near_dependence_rejected(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        z = 2.0 * x + 1e-13 * rng.normal(size=40)
        design = DesignMatrix.build({"a": x, "b": z})
        with pytest.raises(RankDeficiencyError):
            ols_fit(design, np.arange(40.0))

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(DegenerateError):
            fit_columns({"a": np.array([1.0, 2.0]), "b": np.array([0.0, 5.0])},
                        np.array([1.0, 2.0]))

    def test_nan_column_rejected(self):
        with pytest.raises(DegenerateError) as err:
            DesignMatrix.build({"a": np.array([1.0, np.nan, 3.0])})
        assert "a" in str(err.value)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            fit_columns({"a": np.arange(5.0)}, np.arange(6.0))


class TestLoglik:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_pointwise_sum(self, seed):
        # the closed form from sums of squares against the test rows'
        # log densities, one by one
        rng = np.random.default_rng(seed)
        y_tr = rng.normal(size=23)
        y_te = rng.normal(size=17)
        mu = rng.normal(size=17)
        var = float(rng.uniform(0.1, 4.0))
        base_var = float(np.var(y_tr))
        base = y_te - y_tr.mean()
        d = delta_loglik(17, float(np.sum((y_te - mu) ** 2)), var, float(base @ base), base_var)
        model = sum(normal_logpdf(v, m, var) for v, m in zip(y_te, mu))
        baseline = sum(normal_logpdf(v, y_tr.mean(), base_var) for v in y_te)
        assert d.model_loglik == pytest.approx(model, rel=1e-12)
        assert d.baseline_loglik == pytest.approx(baseline, rel=1e-12)
        assert d.total == pytest.approx(model - baseline, rel=1e-9, abs=1e-12)
        assert d.per_token == d.total / 17 and d.n_test == 17

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DegenerateError):
            delta_loglik(3, 0.0, 0.0, 1.0, 1.0)

    def test_informative_model_beats_baseline(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        y = 1.0 + 2.0 * x + 0.5 * rng.normal(size=400)
        tr, te = np.arange(300), np.arange(300, 400)
        design_tr = DesignMatrix.build({"x": x[tr]})
        fit = ols_fit(design_tr, y[tr])
        pred_te = fit.coef("intercept") + fit.coef("x") * x[te]
        d = heldout_delta(y[tr], fit.residual_variance, y[te], pred_te)
        assert d.total > 0.0
        assert d.per_token == pytest.approx(d.total / 100.0, rel=1e-12)

    def test_delta_hand_computed(self):
        # two training rows, one test row; everything small enough to do
        # with pencil and paper: the fit interpolates the training rows
        # (0 and 2), so its variance is floored, and it predicts the
        # test row (1) exactly; the baseline has mean 1, MLE variance 1
        d = delta_loglik(1, 0.0, VARIANCE_FLOOR, 0.0, 1.0)
        model = normal_logpdf(1.0, 1.0, VARIANCE_FLOOR)
        base = normal_logpdf(1.0, 1.0, 1.0)
        assert d.model_loglik == pytest.approx(model, rel=1e-12)
        assert d.baseline_loglik == pytest.approx(base, rel=1e-12)
        assert d.total == pytest.approx(model - base, rel=1e-12)
        # a baseline variance of 0 is floored too
        assert delta_loglik(1, 0.0, 1.0, 0.0, 0.0).baseline_loglik == normal_logpdf(
            0.0, 0.0, VARIANCE_FLOOR
        )


class TestLmg:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_ordering_average(self, seed):
        rng = np.random.default_rng(seed)
        cols, y = random_table(rng, n=50, p=4)
        groups = {"g0": ["x0"], "g1": ["x1", "x2"], "g2": ["x3"]}
        rep = lmg(factor(cols, y), groups)
        ref = lmg_by_orderings(cols, y, groups)
        for g in groups:
            assert rep.share(g) == pytest.approx(ref[g], abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_n_row_subset_fits(self, seed):
        # every subset R^2 comes from the triangular factor of the whole
        # design; refitting each nested model on all n rows must agree,
        # also when one column is the sum of two others
        rng = np.random.default_rng(seed)
        cols, y = random_table(rng, n=70, p=4)
        cols["x2"] = cols["x0"] + cols["x1"]
        for groups in (
            {"a": ["x0"], "b": ["x1"], "c": ["x2"], "d": ["x3"]},
            {"a": ["x0", "x2"], "b": ["x1"], "c": ["x3"]},
            {"a": ["x0", "x1", "x2"], "b": ["x3"]},
        ):
            rep = lmg(factor(cols, y), groups)
            ref = lmg_by_orderings(cols, y, groups, r2=lstsq_rsquared)
            for g in groups:
                assert rep.share(g) == pytest.approx(ref[g], abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_dependent_group_uses_the_n_row_cutoff(self, seed):
        # x2 misses x0 + x1 by 1e-14 per row: n-row lstsq treats that as
        # rank deficient (cutoff eps * n), a 6-row system with its own
        # default cutoff (eps * 6) would not, and the full-model R^2
        # would then move by about 5e-4
        rng = np.random.default_rng(seed)
        n = 3000
        x0, x1, x3 = rng.normal(size=(3, n))
        cols = {"x0": x0, "x1": x1, "x2": x0 + x1 + 1e-14 * rng.normal(size=n), "x3": x3}
        y = 1.0 + x0 - 2.0 * x1 + 0.5 * x3 + rng.normal(size=n)
        groups = {g: [g] for g in cols}
        rep = lmg(factor(cols, y), groups)
        ref = lmg_by_orderings(cols, y, groups, r2=lstsq_rsquared)
        for g in groups:
            assert rep.share(g) == pytest.approx(ref[g], abs=1e-12)

    def test_shares_sum_to_r2(self):
        rng = np.random.default_rng(11)
        cols, y = random_table(rng, n=80, p=5)
        groups = {f"g{i}": [f"x{i}"] for i in range(5)}
        rep = lmg(factor(cols, y), groups)
        full = fit_columns(cols, y)
        assert rep.total_r2 == pytest.approx(full.r2, abs=1e-12)
        assert float(rep.shares.sum()) == pytest.approx(rep.total_r2, abs=1e-10)
        assert np.all(rep.shares >= 0.0)

    def test_orthogonal_predictors_get_marginal_r2(self):
        rng = np.random.default_rng(12)
        n = 4000
        x0 = rng.normal(size=n)
        x1 = rng.normal(size=n)
        y = 1.0 * x0 + 2.0 * x1 + rng.normal(size=n)
        rep = lmg(factor({"x0": x0, "x1": x1}, y), {"a": ["x0"], "b": ["x1"]})
        r2_a = rsquared(x0.reshape(-1, 1), y)
        r2_b = rsquared(x1.reshape(-1, 1), y)
        # with near-orthogonal columns the share is close to the
        # single-predictor R^2 (exact only at zero sample correlation)
        assert rep.share("a") == pytest.approx(r2_a, abs=5e-3)
        assert rep.share("b") == pytest.approx(r2_b, abs=5e-3)

    def test_group_count_limit(self):
        n = 40
        rng = np.random.default_rng(13)
        cols = {f"x{i}": rng.normal(size=n) for i in range(13)}
        y = rng.normal(size=n)
        with pytest.raises(SizeError):
            lmg(factor(cols, y), {f"g{i}": [f"x{i}"] for i in range(13)})

    def test_group_validation(self):
        rng = np.random.default_rng(14)
        cols, y = random_table(rng, n=30, p=2)
        with pytest.raises(ConfigError):
            lmg(factor(cols, y), {"a": ["x0", "x1"], "b": ["x1"]})  # overlap
        with pytest.raises(ConfigError):
            lmg(factor(cols, y), {"a": ["x0"]})  # x1 unused
        with pytest.raises(ConfigError):
            lmg(factor(cols, y), {"a": ["x0"], "b": []})  # empty group
        with pytest.raises(ConfigError):
            lmg(factor(cols, y), {"a": ["x0"], "b": ["nope", "x1"]})

    def test_fit_count(self):
        rng = np.random.default_rng(15)
        cols, y = random_table(rng, n=30, p=3)
        rep = lmg(factor(cols, y), {f"g{i}": [f"x{i}"] for i in range(3)})
        assert rep.n_fits == 8


class TestEquivalence:
    def make_columns(self, rng, n=120):
        s = rng.gamma(2.0, 1.5, size=n)
        f = 0.5 * s + rng.gamma(2.0, 1.0, size=n)
        ln = rng.integers(1, 9, size=n).astype(float)
        y = 180.0 + 12.0 * s - 6.0 * f + 2.0 * ln + rng.normal(0, 9.0, size=n)
        return s, f, ln, y

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_identities_hold(self, seed):
        rng = np.random.default_rng(seed)
        s, f, ln, y = self.make_columns(rng)
        rep = equivalence_report(y, s, f, extras={"length": ln})
        assert rep.deltas["r2"] <= 1e-10
        assert rep.deltas["prediction"] <= 1e-10
        assert rep.fits["pmi"].coef("pmi") == pytest.approx(
            -rep.fits["surprisal"].coef("surprisal"), abs=1e-8
        )

    def test_corrupted_pmi_detected(self):
        rng = np.random.default_rng(21)
        s, f, ln, y = self.make_columns(rng)
        bad_pmi = (f - s) + rng.normal(0, 1e-3, size=s.size)
        with pytest.raises(IdentityError) as err:
            equivalence_report(y, s, f, pmi=bad_pmi, extras={"length": ln})
        assert err.value.deltas

    def test_an_offset_moves_no_gate(self):
        # the columns are centred before the fits: left raw, frequency and
        # length 1e5 away from zero gave a condition number past 1e10
        rng = np.random.default_rng(23)
        s, f, ln, y = self.make_columns(rng)
        base = equivalence_report(y, s, f, extras={"length": ln})
        shifted = equivalence_report(y, s, f + 1e5, extras={"length": ln + 1e5})
        for label in ("surprisal", "frequency", "length"):
            assert shifted.fits["surprisal"].coef(label) == pytest.approx(
                base.fits["surprisal"].coef(label), rel=1e-9
            )

    def test_holds_few_n_row_columns(self):
        # each design is one [1 | centred columns | y] buffer, which the QR
        # copies, and one fitted column is kept: about 9 n-row columns at
        # the peak, where separate centred columns, designs and fitted
        # values held 13
        n = 100_000
        s, f, _, y = self.make_columns(np.random.default_rng(24), n)
        pmi = f - s
        tracemalloc.start()
        try:
            equivalence_report(y, s, f, pmi=pmi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.8 * 8 * n, peak / (8 * n)

    def test_standardized_columns_break_the_identity(self):
        # documents why the check must run on raw columns: rescaling
        # surprisal and pmi by different sds destroys beta_pmi = -beta_s
        rng = np.random.default_rng(22)
        s, f, ln, y = self.make_columns(rng)
        z = lambda v: (v - v.mean()) / v.std(ddof=1)
        with pytest.raises(IdentityError):
            equivalence_report(y, z(s), z(f), pmi=z(f - s), extras={"length": z(ln)})


class TestTriplet:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_identities_hold(self, seed):
        rng = np.random.default_rng(seed)
        n = 90
        x2 = rng.normal(size=n)
        x1 = 0.6 * x2 + rng.normal(size=n)
        y = 1.0 + 2.0 * x1 - 1.0 * x2 + rng.normal(size=n)
        rep = residualization_triplet(y, x1, x2)
        assert rep.deltas["first_coefficient"] <= 1e-8
        assert rep.deltas["second_coefficient"] <= 1e-8
        # and the reduced-model slope really is the simple regression slope
        slope = np.cov(x2, y, ddof=1)[0, 1] / np.var(x2, ddof=1)
        assert rep.fits["reduced"].coef("x2") == pytest.approx(slope, abs=1e-10)

    @pytest.mark.parametrize("offset", [1e5, 1e8])
    def test_an_offset_moves_no_gate(self, offset):
        # the columns are centred before the fits: left raw, 1e5 away
        # from zero gave a condition number past 1e10
        rng = np.random.default_rng(23)
        n = 200
        x2 = rng.gamma(2.0, 1.0, size=n)
        x1 = 0.5 * x2 + rng.gamma(2.0, 1.5, size=n)
        y = 200.0 + 10.0 * x1 + 6.0 * x2 + rng.normal(0, 10.0, size=n)
        base = residualization_triplet(y, x1, x2)
        rep = residualization_triplet(y, x1 + offset, x2 + offset)
        assert rep.deltas["first_coefficient"] <= COEF_TOL
        assert rep.deltas["second_coefficient"] <= COEF_TOL
        for name, label in (("raw", "x1"), ("raw", "x2"), ("reduced", "x2")):
            assert rep.fits[name].coef(label) == pytest.approx(
                base.fits[name].coef(label), rel=1e-6
            )

    def test_labels_respected(self):
        rng = np.random.default_rng(23)
        x2 = rng.normal(size=40)
        x1 = 0.3 * x2 + rng.normal(size=40)
        y = x1 + x2 + rng.normal(size=40)
        rep = residualization_triplet(y, x1, x2, labels=("surp", "freq"))
        assert "surp_perp" in rep.fits["residualized"].labels
        assert rep.fits["raw"].labels == ("intercept", "surp", "freq")
