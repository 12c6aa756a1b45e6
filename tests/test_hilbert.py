"""Tests for the measure-weighted geometry and both projection modes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_lm
from ctxpred.errors import AlignmentError, ConvergenceError, DegenerateError
from ctxpred.hilbert import (
    MeasureTable,
    ProjectionCoefficient,
    RandomVariableTable,
    fit_projection,
    inner_product,
    mean,
    project_complement,
    sample_orthogonalize,
)
from ctxpred.lm import (
    EnumerationBudget,
    enumerated_context_mass,
    prefix_normalizer,
    unigram_minimizer,
)


def surprisal_var(measure: MeasureTable) -> RandomVariableTable:
    # handmade here on purpose; the packaged builders live in predictors
    return RandomVariableTable(
        measure=measure, values=-np.log(measure.row_cond), label="surprisal"
    )


def frequency_var(measure: MeasureTable, q) -> RandomVariableTable:
    probs = np.array([q.prob(sym) for sym in measure.symbols])
    return RandomVariableTable(
        measure=measure,
        values=-np.log(probs[measure.row_symbol]),
        label="frequency",
    )


class TestMeasureConstruction:
    def test_m0_mass_coverage(self, m0):
        t = MeasureTable.from_lm(m0)
        assert float(np.sum(t.weights)) == pytest.approx(1.0, abs=1e-15)
        assert np.all(t.weights > 0.0)

    def test_m1_rows_match_literal_enumeration(self, m1):
        t = MeasureTable.from_lm(m1)
        # Z = 31/15 exactly for this fixture; contexts of one unit up to
        # length 120 leave out less than 1e-70 of the mass
        table, captured = oracles.brute_context_measure(m1, 120, 31.0 / 15.0)
        assert captured == pytest.approx(1.0, abs=1e-15)
        # every (state, symbol) row must match the literal context masses
        # of that state times the conditional
        state_mass: dict[tuple, float] = {}
        for ctx, pi in table.items():
            state = m1.state_of(ctx)
            state_mass[state] = state_mass.get(state, 0.0) + pi
        states = m1.states
        for s, c, w in zip(t.row_state, t.row_symbol, t.weights):
            state, sym = states[s], t.symbols[c]
            p = m1.cond[state][sym]
            assert w == pytest.approx(state_mass[state] * p, rel=1e-14)
        assert float(np.sum(t.weights)) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_empty_model_has_single_row(self):
        from ctxpred.lm import AutoregressiveLM, UnitAlphabet

        lm = AutoregressiveLM(alphabet=UnitAlphabet(units=()), cond={(): {"$": 1.0}})
        t = MeasureTable.from_lm(lm)
        assert t.n_rows == 1
        assert float(np.sum(t.weights)) == pytest.approx(1.0)

    def test_budget_exhaustion(self, m0):
        # the enumeration that checks the measure refuses a horizon too
        # short for its tail bound
        with pytest.raises(ConvergenceError) as err:
            enumerated_context_mass(m0, EnumerationBudget(max_len=2, tail_tol=1e-9))
        assert err.value.remaining > 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_enumeration_checks_the_exact_measure(self, seed):
        # the level-by-level enumeration never exceeds the visit solve in
        # any state, and falls short of it by at most its tail in total
        lm = random_lm(np.random.default_rng(seed), max_order=2)
        budget = EnumerationBudget(max_len=256, tail_tol=1e-6)
        enumerated = enumerated_context_mass(lm, budget)
        z = prefix_normalizer(lm)
        assert np.all(enumerated <= lm.visits + 1e-12)
        assert float(np.sum(lm.visits - enumerated)) <= budget.tail_tol * z
        t = MeasureTable.from_lm(lm)
        assert abs(float(np.sum(t.weights)) - 1.0) <= 1e-15 * t.n_rows

    def test_row_order_is_reproducible(self, m0):
        a = MeasureTable.from_lm(m0)
        b = MeasureTable.from_lm(m0)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.row_symbol, b.row_symbol)


class TestInnerProduct:
    def test_m0_frequency_second_moment(self, m0):
        # 0.3 ln^2(0.3) + 0.2 ln^2(0.2) + 0.5 ln^2(0.5) = 1.1931497...,
        # frozen from the marginal closed form for a memoryless model
        expected = (
            0.3 * np.log(0.3) ** 2 + 0.2 * np.log(0.2) ** 2 + 0.5 * np.log(0.5) ** 2
        )
        assert expected == pytest.approx(1.1931497, abs=5e-7)
        t = MeasureTable.from_lm(m0)
        y = frequency_var(t, unigram_minimizer(m0))
        assert inner_product(y, y) == pytest.approx(expected, abs=1e-5)

    def test_matches_brute_enumeration_on_m1(self, m1):
        t = MeasureTable.from_lm(m1)
        ii = surprisal_var(t)
        yy = frequency_var(t, unigram_minimizer(m1))
        table, _ = oracles.brute_context_measure(m1, 60, 31.0 / 15.0)
        brute = 0.0
        for ctx, pi in table.items():
            for sym, p in m1.cond[m1.state_of(ctx)].items():
                q = unigram_minimizer(m1).prob(sym)
                brute += pi * p * (-np.log(p)) * (-np.log(q))
        assert inner_product(ii, yy) == pytest.approx(brute, abs=1e-8)

    def test_alignment_required(self, m0, m1):
        ta = MeasureTable.from_lm(m0)
        tb = MeasureTable.from_lm(m1)
        with pytest.raises(AlignmentError):
            inner_product(surprisal_var(ta), surprisal_var(tb))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        lm = random_lm(rng, max_units=2)
        t = MeasureTable.from_lm(lm)
        x = t.weights.size
        a = RandomVariableTable(t, rng.normal(size=x), "a")
        b = RandomVariableTable(t, rng.normal(size=x), "b")
        c = RandomVariableTable(t, rng.normal(size=x), "c")
        lam = float(rng.normal())
        combo = RandomVariableTable(t, lam * a.values + b.values, "combo")
        lhs = inner_product(combo, c)
        rhs = lam * inner_product(a, c) + inner_product(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        assert inner_product(a, b) == pytest.approx(inner_product(b, a), rel=1e-12)
        assert inner_product(a, a) >= 0.0


class TestExactProjection:
    def test_memoryless_surprisal_equals_frequency(self, m0):
        # with no context the surprisal and frequency variables coincide,
        # so projecting one off the other leaves the zero variable
        t = MeasureTable.from_lm(m0)
        ii = surprisal_var(t)
        yy = frequency_var(t, unigram_minimizer(m0))
        resid, coeff = project_complement(ii, yy)
        assert np.sqrt(inner_product(resid, resid)) <= 1e-10
        assert coeff.alpha == pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_residual_orthogonal_and_uncorrelated(self, seed):
        rng = np.random.default_rng(seed)
        lm = random_lm(rng, eos_floor=0.6)
        t = MeasureTable.from_lm(lm)
        ii = surprisal_var(t)
        yy = frequency_var(t, unigram_minimizer(lm))
        try:
            resid, _ = project_complement(ii, yy)
        except DegenerateError:
            return  # a single-symbol alphabet makes frequency constant
        # orthogonal to the anchor: what the oracle's
        # projection_orthogonality check reports
        assert abs(inner_product(resid, yy)) <= 1e-10
        # and uncorrelated with it
        cov = inner_product(resid, yy) - mean(resid) * mean(yy) * float(np.sum(t.weights))
        assert abs(cov) <= 1e-10
        assert abs(mean(resid)) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_projection_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        lm = random_lm(rng, max_units=3, eos_floor=0.6)
        t = MeasureTable.from_lm(lm)
        x = RandomVariableTable(t, rng.normal(size=t.n_rows), "x")
        z = RandomVariableTable(t, rng.normal(size=t.n_rows), "z")
        resid, _ = project_complement(x, z)
        again, coeff2 = project_complement(resid, z)
        assert coeff2.alpha == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(again.values, resid.values, atol=1e-10)

    def test_zero_norm_direction_rejected(self, m0):
        t = MeasureTable.from_lm(m0)
        x = RandomVariableTable(t, np.ones(t.n_rows), "x")
        zero = RandomVariableTable(t, np.zeros(t.n_rows), "zero")
        with pytest.raises(DegenerateError):
            project_complement(x, zero)
        # a constant is nonzero but centres away to nothing
        const = RandomVariableTable(t, np.full(t.n_rows, 3.0), "const")
        with pytest.raises(DegenerateError):
            project_complement(x, const)


class TestSampleMode:
    def test_frozen_example(self):
        got = sample_orthogonalize(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 3.0]))
        assert np.allclose(got, [-1.0 / 7.0, 3.0 / 14.0, -1.0 / 14.0], atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_zero_mean_and_zero_covariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        r = sample_orthogonalize(x, z)
        scale = max(1.0, float(np.abs(r).max()))
        assert abs(r.mean()) <= 1e-10 * scale
        assert abs(np.dot(r, z - z.mean())) <= 1e-8 * scale * max(1.0, np.abs(z).max())

    def test_training_statistics_replay_on_heldout(self):
        rng = np.random.default_rng(42)
        z = rng.normal(size=200)
        x = 0.7 * z + rng.normal(size=200) * 0.3
        coeff = fit_projection(x[:150], z[:150])
        r_train = coeff.apply(x[:150], z[:150])
        # exact decorrelation holds on the fitted rows only
        assert abs(np.dot(r_train, z[:150] - coeff.z_mean)) <= 1e-8
        r_test = coeff.apply(x[150:], z[150:])
        # held-out residuals use training moments, so near- but not exact zero
        assert abs(np.corrcoef(r_test, z[150:])[0, 1]) < 0.3

    def test_unbiased_covariance_ratio(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        z = np.array([0.0, 1.0, 1.0, 2.0])
        coeff = fit_projection(x, z)
        xc = x - x.mean()
        zc = z - z.mean()
        assert coeff.alpha == pytest.approx(
            (xc @ zc / 3.0) / (zc @ zc / 3.0), rel=1e-12
        )

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateError):
            sample_orthogonalize(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        with pytest.raises(DegenerateError):
            fit_projection(np.array([1.0]), np.array([1.0]))
        with pytest.raises(AlignmentError):
            fit_projection(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_coefficient_roundtrip_fields(self):
        c = ProjectionCoefficient(alpha=0.5, x_mean=1.0, z_mean=2.0)
        out = c.apply(np.array([2.0]), np.array([4.0]))
        assert out[0] == pytest.approx((2.0 - 1.0) - 0.5 * (4.0 - 2.0))
