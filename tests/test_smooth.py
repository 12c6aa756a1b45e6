"""Spline basis, roughness penalty, GCV selection, smooth-vs-linear."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fit_columns,
    gcv_search_nrow,
    gcv_search_reference,
    natural_spline_eval,
    scipy_natural_design,
)
from ctxpred.errors import (
    AlignmentError,
    BasisError,
    ConditioningError,
    ConfigError,
    DegenerateError,
)
from ctxpred.smooth import (
    KNOT_MERGE_TOL,
    LAMBDA_GRID,
    SmoothTerm,
    SplineBasis,
    _PenalizedProblem,
    fit_smooth,
)

from conftest import heldout_delta, smooth_fit


class TestBasis:
    def test_shape(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        basis = SplineBasis.from_quantiles(x, 6)
        assert basis.design(x).shape == (100, 6)

    def test_cardinal_at_knots(self):
        basis = SplineBasis(np.array([0.0, 1.0, 2.5, 4.0]))
        at_knots = basis.design(basis.knots)
        assert np.allclose(at_knots, np.eye(4), atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=25, deadline=None)
    def test_partition_of_unity(self, seed):
        # the natural interpolant of constant data is that constant, so
        # the cardinal columns sum to one everywhere - including the
        # linear-extrapolation region
        rng = np.random.default_rng(seed)
        knots = np.sort(rng.uniform(-3, 3, size=5))
        if np.any(np.diff(knots) < 1e-3):
            return
        basis = SplineBasis(knots)
        x = rng.uniform(-6, 6, size=40)
        assert np.allclose(basis.design(x).sum(axis=1), 1.0, atol=1e-10)

    def test_linear_functions_in_span(self):
        basis = SplineBasis(np.array([-1.0, 0.0, 0.5, 2.0, 3.0]))
        x = np.linspace(-4.0, 6.0, 80)  # spills past both boundaries
        target = 2.0 - 3.0 * x
        # coefficients = knot values reproduce a linear target exactly
        coef = 2.0 - 3.0 * basis.knots
        assert np.allclose(basis.design(x) @ coef, target, atol=1e-10)

    def test_matches_interpolation_oracle(self):
        rng = np.random.default_rng(1)
        knots = np.array([0.0, 0.7, 1.1, 2.0, 3.5, 4.0])
        values = rng.normal(size=6)
        basis = SplineBasis(knots)
        x = np.concatenate([np.linspace(-1.0, 5.0, 60), knots])
        want = natural_spline_eval(knots, values, x)
        assert np.allclose(basis.design(x) @ values, want, atol=1e-10)

    def test_validation(self):
        with pytest.raises(BasisError):
            SplineBasis(np.array([0.0, 1.0]))
        with pytest.raises(BasisError):
            SplineBasis(np.array([0.0, 1.0, 1.0, 2.0]))
        with pytest.raises(BasisError):
            SplineBasis.from_quantiles(np.arange(4.0), k=6)
        with pytest.raises(BasisError):
            # ties at the quantiles: too few distinct values
            SplineBasis.from_quantiles(np.array([1.0] * 50 + [2.0] * 50), k=6)
        with pytest.raises(BasisError):
            SplineBasis.from_quantiles(np.arange(10.0), k=2)

    def test_knots_capped_at_distinct_values(self):
        rng = np.random.default_rng(11)
        # at most k distinct values: one knot at each
        x = rng.choice([0.5, 1.0, 4.0, 7.5], size=200)
        assert np.array_equal(SplineBasis.from_quantiles(x, 6).knots, [0.5, 1.0, 4.0, 7.5])
        # more than k distinct values but tied quantiles: the ties merge,
        # and fewer than 3 survivors cannot carry a cubic basis
        x = np.concatenate([np.zeros(50), np.arange(1.0, 51.0)])
        assert np.allclose(SplineBasis.from_quantiles(x, 6).knots, [0.0, 10.4, 30.2, 50.0])
        with pytest.raises(BasisError):
            SplineBasis.from_quantiles(np.concatenate([np.zeros(100), np.arange(1.0, 11.0)]), 6)
        # the 0.6 quantile of these 106 values sits at position 63, the
        # last of the tied -0.112 block, but np.quantile computes it as
        # 63.00000000000001 and lands a few ulps past -0.112: that is the
        # same knot, not a second one next to it
        x = np.repeat([-1.38, -0.112, 0.115, 0.409, 0.703, 2.242, 2.536, 2.83],
                      [11, 53, 30, 4, 2, 3, 2, 1])
        assert np.unique(np.quantile(x, np.linspace(0.0, 1.0, 6))).size == 5
        assert np.array_equal(SplineBasis.from_quantiles(x, 6).knots, [-1.38, -0.112, 0.115, 2.83])
        # two values apart only by rounding count once
        x = np.repeat([0.0, 1.0, 1.0 + 4e-16, 3.0], 10)
        assert np.array_equal(SplineBasis.from_quantiles(x, 6).knots, [0.0, 1.0, 3.0])
        # continuous data: the k quantiles themselves
        x = rng.normal(size=300)
        want = np.quantile(x, np.linspace(0.0, 1.0, 6))
        assert np.array_equal(SplineBasis.from_quantiles(x, 6).knots, want)

    @pytest.mark.parametrize("shape", ["normal", "tied", "gamma"])
    def test_knots_from_one_sort_equal_the_unique_route(self, shape):
        # the distinct values read off one sorted copy, and the quantiles
        # of that copy, give the knots that np.unique and np.quantile on
        # the column itself give, bit for bit
        rng = np.random.default_rng(29)
        for _ in range(60):
            n, k = int(rng.integers(10, 2000)), int(rng.integers(3, 9))
            if shape == "normal":
                x = rng.normal(size=n)
            elif shape == "tied":
                x = rng.choice(np.round(rng.normal(size=int(rng.integers(2, 12))), 2), size=n)
            else:
                x = rng.gamma(2.0, size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
            knots = np.unique(x)
            if knots.size > k:
                knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, k)))
            gap = KNOT_MERGE_TOL * (knots[-1] - knots[0])
            want = knots[np.concatenate([[True], np.diff(knots) > gap])]
            if want.size < 3:
                with pytest.raises(BasisError):
                    SplineBasis.from_quantiles(x, k)
            else:
                assert same_bits(SplineBasis.from_quantiles(x, k).knots, want)

    def test_penalty_null_space_is_affine(self):
        basis = SplineBasis(np.array([0.0, 0.3, 1.0, 2.2, 5.0]))
        pen = basis.penalty()
        affine = 1.7 + 0.4 * basis.knots
        assert np.allclose(pen @ affine, 0.0, atol=1e-12)
        assert np.allclose(pen, pen.T, atol=1e-15)
        eigs = np.linalg.eigvalsh(pen)
        assert eigs.min() > -1e-12
        assert np.sum(eigs > 1e-10) == 3  # rank k-2


def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def knot_sets(draw):
    """3 to 10 knots whose gaps mix scales, so that the slopes' system
    often needs dgtsv's row interchanges."""
    k = draw(st.integers(min_value=3, max_value=10))
    gap = st.one_of(
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from([0.01, 0.5, 1.0, 4.0, 100.0]),
    )
    gaps = draw(st.lists(gap, min_size=k - 1, max_size=k - 1))
    start = draw(st.floats(min_value=-1e3, max_value=1e3))
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


class TestBasisMatchesScipy:
    """The basis is computed in numpy with scipy's natural CubicSpline
    arithmetic, so its design equals scipy's bit for bit."""

    @given(knots=knot_sets(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_cubic_spline(self, knots, seed):
        if np.any(np.diff(knots) <= 0.0):
            return  # gaps lost to rounding at large offsets
        rng = np.random.default_rng(seed)
        lo, hi = knots[0], knots[-1]
        span = hi - lo
        x = np.concatenate([
            knots, [lo, hi, lo - span, hi + span, np.nextafter(lo, -np.inf),
                    np.nextafter(hi, np.inf)],
            rng.uniform(lo - span, hi + span, size=50),
        ])
        assert same_bits(SplineBasis(knots).design(x), scipy_natural_design(knots, x))

    @pytest.mark.parametrize("knots", [
        [0.0, 1.0, 5.0, 6.0],  # |2 h0| < h1: the first step interchanges rows
        [0.0, 1.0, 2.0],
        [-3.0, -2.9, 0.0, 0.1, 7.0, 7.05, 20.0],
        [0.0, 100.0, 100.5, 101.0, 300.0, 300.01, 300.02, 900.0, 901.0, 5000.0],
    ])
    def test_bit_equal_on_fixed_knots(self, knots):
        knots = np.array(knots)
        x = np.concatenate([knots, np.linspace(knots[0] - 5.0, knots[-1] + 5.0, 201)])
        assert same_bits(SplineBasis(knots).design(x), scipy_natural_design(knots, x))


class TestFit:
    def test_zero_lambda_equals_unpenalized(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=80)
        y = np.sin(6 * x) + 0.2 * rng.normal(size=80)
        fit = smooth_fit({"x": x}, y, lambda_grid=[0.0])
        basis = SplineBasis.from_quantiles(x, 6)
        raw = basis.design(x)[:, 1:]
        design = np.column_stack([np.ones(80), raw - raw.mean(axis=0)])
        beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(fit.predict({"x": x}), design @ beta, atol=1e-9)
        assert fit.lambdas == (0.0,)

    def test_exactly_linear_target_reproduced(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=120)
        y = 2.0 + 3.0 * x
        fit = smooth_fit({"x": x}, y)
        assert np.allclose(fit.predict({"x": x}), y, atol=1e-6)
        line = fit_columns({"x": x}, y)
        assert np.allclose(
            fit.predict({"x": x}),
            line.coef("intercept") + line.coef("x") * x,
            atol=1e-6,
        )

    def test_gcv_matches_hand_instance(self):
        # 5 rows, 3 knots, one fixed lambda: recompute everything with
        # plain linear algebra straight from the definition
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.3, -0.1, 0.8, 1.9, 1.7])
        lam = 2.5
        fit = smooth_fit({"x": x}, y, k=3, lambda_grid=[lam])
        basis = SplineBasis.from_quantiles(x, 3)
        raw = basis.design(x)[:, 1:]
        design = np.column_stack([np.ones(5), raw - raw.mean(axis=0)])
        pen = np.zeros((3, 3))
        pen[1:, 1:] = basis.penalty()[1:, 1:]
        m = design.T @ design + lam * pen
        beta = np.linalg.solve(m, design.T @ y)
        resid = y - design @ beta
        sse = float(resid @ resid)
        edf = float(np.trace(np.linalg.solve(m, design.T @ design)))
        want = 5 * sse / (5 - edf) ** 2
        assert fit.gcv == pytest.approx(want, abs=1e-10)
        assert fit.edf == pytest.approx(edf, abs=1e-10)
        assert fit.sse == pytest.approx(sse, abs=1e-10)

    def test_interpolates_knot_data_at_zero_lambda(self):
        knots = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        rng = np.random.default_rng(4)
        values = rng.normal(size=5)
        # each knot appears twice with the same response so that the fit
        # interpolates (zero residual) while keeping edf < n
        fit = smooth_fit(
            {"x": np.repeat(knots, 2)}, np.repeat(values, 2), k=5, lambda_grid=[0.0]
        )
        xq = np.array([-1.0, 0.2, 1.5, 2.7, 3.9, 5.5])
        want = natural_spline_eval(knots, values, xq)
        assert np.allclose(fit.predict({"x": xq}), want, atol=1e-10)

    def test_pure_noise_selects_largest_lambda(self):
        # the predictor scale is chosen so the top of the lambda grid is
        # still actively constraining the fit (penalty entries shrink as
        # the knot spacing grows); once the grid saturates, consecutive
        # lambdas tie to rounding and the smaller-lambda tie-break wins
        # instead
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(10_000 + trial)
            x = rng.uniform(0, 1000.0, size=150)
            y = rng.normal(size=150)
            fit = smooth_fit({"x": x}, y)
            hits += fit.lambdas[0] == LAMBDA_GRID[-1]
        assert hits >= 90

    def test_wiggly_signal_selects_interior_lambda(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=300)
        y = np.sin(8.0 * x) + 0.1 * rng.normal(size=300)
        fit = smooth_fit({"x": x}, y, k=8)
        assert fit.lambdas[0] < LAMBDA_GRID[-1]
        assert fit.r2 > 0.9

    def test_two_terms_additive(self):
        rng = np.random.default_rng(6)
        n = 500
        x1 = rng.uniform(-1, 1, size=n)
        x2 = rng.uniform(-1, 1, size=n)
        y = np.sin(4.0 * x1) + x2 ** 2 + 0.15 * rng.normal(size=n)
        fit = smooth_fit({"x1": x1, "x2": x2}, y)
        assert len(fit.lambdas) == 2
        assert fit.r2 > 0.85
        linear = fit_columns({"x1": x1, "x2": x2}, y)
        assert fit.r2 > linear.r2 + 0.3
        summary = fit.term_summary()
        assert [row["term"] for row in summary] == ["x1", "x2"]
        assert all(row["k"] == 6 and row["edf"] > 0 for row in summary)
        assert fit.edf == pytest.approx(
            1.0 + sum(row["edf"] for row in summary), abs=1e-9
        )

    def test_alignment_and_grid_validation(self):
        x = np.arange(20.0)
        y = np.arange(19.0)
        with pytest.raises(AlignmentError):
            smooth_fit({"x": x}, y)
        with pytest.raises(ConfigError):
            smooth_fit({"x": x}, np.arange(20.0), lambda_grid=[])
        with pytest.raises(ConfigError):
            smooth_fit({"x": x}, np.arange(20.0), lambda_grid=[1.0, 0.1])
        for grid in ([1.0, np.inf], [np.nan], [-1.0, 1.0], [0.0, np.nan, 1.0]):
            with pytest.raises(ConfigError, match="finite and nonnegative"):
                smooth_fit({"x": x}, np.arange(20.0), lambda_grid=grid)
        with pytest.raises(ConfigError):
            smooth_fit({}, y)

    def test_default_grid_is_the_log_spaced_grid(self):
        # written as literals so that the option table needs no numpy
        assert [v.hex() for v in LAMBDA_GRID] == [
            float(v).hex() for v in np.logspace(-4.0, 4.0, 17)
        ]

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=200)
        y = np.sin(5 * x) + 0.2 * rng.normal(size=200)
        a = smooth_fit({"x": x}, y)
        b = smooth_fit({"x": x}, y)
        assert a.lambdas == b.lambdas
        assert np.array_equal(a.coefficients, b.coefficients)


class TestSharedBlocks:
    """A SmoothTerm holds its column's training block, so the fits that
    share it (one per model, for a design column within a fold) share
    that block and its basis."""

    def test_blocks_shared_by_name_and_values(self):
        rng = np.random.default_rng(21)
        a, b, c = (rng.uniform(-2.0, 2.0, size=200) for _ in range(3))
        y = np.sin(2.0 * a) + b + 0.3 * rng.normal(size=200)
        shared = SmoothTerm.fit("a", a)
        for name, x in (("b", b), ("c", c)):
            fit = fit_smooth({"a": shared, name: SmoothTerm.fit(name, x)}, y)
            own = smooth_fit({"a": a, name: x}, y)
            assert fit.terms[0] is shared
            assert fit.lambdas == own.lambdas
            assert np.array_equal(fit.coefficients, own.coefficients)
            cols = {"a": a, name: x}
            assert np.array_equal(fit.predict(cols), own.predict(cols))
        # other values, or another basis size: the basis on that column's
        # quantile knots, of that size
        for k in (4, 6):
            moved = SmoothTerm.fit("a", a + 1.0, k)
            assert moved.basis.k == k
            assert np.array_equal(
                moved.basis.knots, SplineBasis.from_quantiles(a + 1.0, k).knots
            )

    def test_test_rows_share_blocks_of_a_shared_basis(self):
        rng = np.random.default_rng(22)
        a, b, c = (rng.uniform(-2.0, 2.0, size=200) for _ in range(3))
        y = np.sin(2.0 * a) + b + 0.3 * rng.normal(size=200)
        shared = SmoothTerm.fit("a", a[:150])
        one = fit_smooth({"a": shared, "b": SmoothTerm.fit("b", b[:150])}, y[:150])
        two = fit_smooth({"a": shared, "c": SmoothTerm.fit("c", c[:150])}, y[:150])
        assert one.terms[0].basis is two.terms[0].basis
        test = {"a": a[150:], "b": b[150:], "c": c[150:]}
        first = one.predict(test)
        for fit, name, x in ((one, "b", b), (two, "c", c)):
            own = smooth_fit({"a": a[:150], name: x[:150]}, y[:150])
            assert np.array_equal(fit.predict(test), own.predict(test))
        # the same term on other rows leaves nothing behind
        two.predict({"a": a[:50], "c": c[:50]})
        assert np.array_equal(one.predict(test), first)


class TestSharedTerms:
    def test_term_arrays_are_read_only(self):
        term = SmoothTerm.fit("a", np.linspace(-1.0, 1.0, 50))
        for values in (term.means, term.centred, term.basis.knots):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_term_errors_name_the_column(self):
        with pytest.raises(BasisError, match="term 'a'"):
            SmoothTerm.fit("a", np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0]))
        with pytest.raises(DegenerateError, match="column 'a'"):
            SmoothTerm.fit("a", np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0]))


class TestKSpaceSearch:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_n_row_search(self, seed):
        # GCV scored from k-sized quantities must pick the lambdas the
        # n-row residual picks, and the final solve must be bit-equal
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 300))
        cols = {f"x{i}": rng.uniform(-2.0, 2.0, size=n) for i in range(int(rng.integers(1, 4)))}
        y = 300.0 + rng.normal(scale=rng.uniform(0.05, 1.0), size=n)
        for x in cols.values():
            y += np.sin(rng.uniform(0.5, 3.0) * x)
        fit = smooth_fit(cols, y, k=int(rng.integers(3, 8)))
        bases = [term.basis for term in fit.terms]
        lambdas, beta = gcv_search_nrow(cols, y, bases, LAMBDA_GRID)
        assert fit.lambdas == lambdas
        assert np.array_equal(fit.coefficients, beta)

    def test_fitted_values_are_training_predictions(self):
        rng = np.random.default_rng(12)
        cols = {"a": rng.uniform(0, 1, size=150), "b": rng.choice([1.0, 2.0, 5.0], size=150)}
        y = np.sin(4.0 * cols["a"]) + cols["b"] + 0.2 * rng.normal(size=150)
        fit = smooth_fit(cols, y)
        resid = y - fit.predict(cols)
        assert fit.sse == float(resid @ resid)


@st.composite
def search_cases(draw):
    """Columns, response, basis size, grid and sweep cap for a smooth fit;
    with ``aliased`` the first two terms are functions of the same three
    types, so only their penalties tell them apart."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_terms = draw(st.integers(min_value=1, max_value=4))
    aliased = n_terms >= 2 and draw(st.booleans())
    n = int(rng.integers(60, 300))
    types = rng.permutation(np.arange(n) % 3)
    cols = {}
    for i in range(n_terms):
        if aliased and i < 2:
            cols[f"x{i}"] = np.sort(rng.uniform(0.5, 6.0, size=3))[types]
        else:
            cols[f"x{i}"] = rng.uniform(-2.0, 2.0, size=n)
    y = 300.0 + rng.normal(scale=rng.uniform(0.05, 1.0), size=n) + 0.5 * types
    for x in cols.values():
        y += np.sin(rng.uniform(0.5, 3.0) * x)
    k = int(rng.integers(3, 8))
    grid = draw(st.sampled_from([LAMBDA_GRID, (0.0, 1e-2, 1.0, 100.0)]))
    max_sweeps = draw(st.sampled_from([1, 2, 10]))
    return cols, y, k, grid, max_sweeps


class TestSearchMatchesPlainSearch:
    @given(case=search_cases())
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_reference(self, case):
        # one penalized base per scan, one stack of systems per scan and
        # the early stop must leave every selected and reported number
        # unchanged
        cols, y, k, grid, max_sweeps = case
        bases = [SplineBasis.from_quantiles(x, k) for x in cols.values()]
        try:
            want = gcv_search_reference(cols, y, bases, grid, max_sweeps)
        except np.linalg.LinAlgError:
            with pytest.raises(ConditioningError, match="singular at lambdas"):
                smooth_fit(cols, y, k=k, lambda_grid=grid, max_sweeps=max_sweeps)
            return
        if not (math.isfinite(want["gcv"]) and np.all(np.isfinite(want["coefficients"]))):
            with pytest.raises(ConditioningError):
                smooth_fit(cols, y, k=k, lambda_grid=grid, max_sweeps=max_sweeps)
            return
        fit = smooth_fit(cols, y, k=k, lambda_grid=grid, max_sweeps=max_sweeps)
        knots = [term.basis.knots.tolist() for term in fit.terms]
        assert knots == [b.knots.tolist() for b in bases]
        assert fit.lambdas == want["lambdas"]
        assert np.array_equal(fit.coefficients, want["coefficients"])
        assert fit.gcv == want["gcv"]
        assert fit.edf == want["edf"]
        assert fit.term_edf == want["term_edf"]

    def test_singular_system_names_lambdas(self):
        # frequency and length of three unit types, unpenalized: the two
        # terms span the same centred functions
        rng = np.random.default_rng(0)
        types = rng.integers(0, 3, size=120)
        cols = {
            "frequency": np.array([1.5, 3.0, 4.2])[types],
            "length": np.array([1.0, 2.0, 4.0])[types],
        }
        y = 200.0 + 3.0 * types + rng.normal(size=120)
        bases = [SplineBasis.from_quantiles(x, 6) for x in cols.values()]
        with pytest.raises(np.linalg.LinAlgError):
            gcv_search_reference(cols, y, bases, [0.0])
        with pytest.raises(ConditioningError, match=r"singular at lambdas \(0\.0, 0\.0\)"):
            smooth_fit(cols, y, lambda_grid=[0.0])


@st.composite
def positive_definite_stacks(draw):
    """A stack of symmetric positive definite systems, each of condition
    number at most 1e6, and a right-hand side [b | M] with M positive
    semidefinite, shaped as the fit's [X'y | X'X]."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    k = draw(st.integers(min_value=1, max_value=40))
    count = draw(st.integers(min_value=1, max_value=5))
    systems = []
    for _ in range(count):
        rotation, _ = np.linalg.qr(rng.normal(size=(k, k)))
        spectrum = 10.0 ** rng.uniform(-3.0, 3.0) * np.logspace(
            0.0, draw(st.floats(min_value=0.0, max_value=6.0)), k
        )
        system = (rotation * rng.permutation(spectrum)) @ rotation.T
        systems.append((system + system.T) / 2.0)
    rows = rng.normal(size=(k + 5, k))
    rhs = np.column_stack([rng.normal(scale=10.0 ** rng.uniform(-2.0, 2.0), size=k), rows.T @ rows])
    return np.array(systems), rhs


class TestCholeskySolve:
    @given(case=positive_definite_stacks())
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_cho_solve(self, case):
        # the stacked numpy solve against scipy's cho_factor/cho_solve on
        # each system: coefficients b and edf tr(A^-1 M) within 1e-9
        systems, rhs = case
        candidates = [(float(i),) for i in range(len(systems))]
        betas, influences = _PenalizedProblem._solve(systems, rhs, candidates)
        for system, beta, influence in zip(systems, betas, influences):
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(system, lower=True), rhs)
            assert np.linalg.norm(beta - want[:, 0]) <= 1e-9 * np.linalg.norm(want[:, 0])
            edf, want_edf = np.trace(influence), np.trace(want[:, 1:])
            assert abs(edf - want_edf) <= 1e-9 * abs(want_edf)

    def test_names_the_first_system_that_is_not_positive_definite(self):
        good = np.eye(3)
        bad = np.diag([1.0, -1.0, 1.0])
        rhs = np.ones((3, 4))
        with pytest.raises(ConditioningError, match=r"singular at lambdas \(1\.0, 2\.0\)"):
            _PenalizedProblem._solve(
                np.array([good, bad, bad]), rhs, [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
            )


class TestDelta:
    def test_smooth_beats_linear_on_nonlinear_signal(self):
        wins = 0
        for trial in range(50):
            rng = np.random.default_rng(20_000 + trial)
            x = rng.uniform(0, 1, size=400)
            y = np.sin(2.0 * np.pi * x) + 0.3 * rng.normal(size=400)
            tr, te = np.arange(300), np.arange(300, 400)
            fit = smooth_fit({"x": x[tr]}, y[tr])
            smooth_delta = heldout_delta(
                y[tr], fit.residual_variance, y[te], fit.predict({"x": x[te]})
            )
            linear = fit_columns({"x": x[tr]}, y[tr])
            lin_te = linear.coef("intercept") + linear.coef("x") * x[te]
            linear_delta = heldout_delta(y[tr], linear.residual_variance, y[te], lin_te)
            wins += smooth_delta.per_token > linear_delta.per_token
        assert wins >= 45

    def test_baseline_against_itself_is_zero(self):
        rng = np.random.default_rng(9)
        y_tr = rng.normal(size=50)
        y_te = rng.normal(size=20)
        # the mean-only fit's residual variance
        variance = float(np.var(y_tr))
        d = heldout_delta(y_tr, variance, y_te, np.full(20, y_tr.mean()))
        assert d.total == pytest.approx(0.0, abs=1e-12)

    def test_positive_on_own_process(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, size=500)
        y = np.cos(3.0 * x) + 0.2 * rng.normal(size=500)
        fit = smooth_fit({"x": x[:400]}, y[:400])
        d = heldout_delta(y[:400], fit.residual_variance, y[400:], fit.predict({"x": x[400:]}))
        assert d.per_token > 0.5
        assert fit.n_obs == 400
