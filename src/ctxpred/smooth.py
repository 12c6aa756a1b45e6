"""Penalized natural-cubic-spline regression with GCV-chosen smoothing.

A deliberately small additive-model engine: each term gets a cardinal
natural cubic basis on quantile knots (at most one per distinct
predictor value), a divided-second-difference
roughness penalty whose null space is exactly the linear functions, and
a per-term smoothing parameter selected by generalized cross-validation
over a fixed log-spaced grid.  Everything is deterministic; multi-term
selection runs coordinate descent over the same grid.

The basis columns are the interpolation indicators B_j (B_j(knot_i) =
delta_ij), so a coefficient vector is readable as fitted values at the
knots.  For identifiability next to the global intercept, each term
drops its first column and mean-centers the rest; because the penalty's
null space contains constants, penalizing the corresponding minor of
the full penalty matrix still charges exactly the curvature of the
implied knot values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .choices import DEFAULT_KNOTS, LAMBDA_GRID, check_lambda_grid
from .errors import (
    AlignmentError,
    BasisError,
    ConditioningError,
    ConfigError,
    DegenerateError,
)
from .regression import VARIANCE_FLOOR

# Knots closer than this share of the predictor's range are one knot.
# np.quantile's fractional positions carry rounding of about n * eps, so
# a quantile that should sit exactly on a tied value can land a hair
# past it, and arithmetic on equal values (residualization) can leave
# values a few ulps apart; either would give a near-singular basis.
KNOT_MERGE_TOL = 1e-9
MAX_SWEEPS = 10


def _cardinal_coefficients(knots: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the k cardinal natural cubic splines.

    Entry [m, i, j] multiplies (x - knots[i])**(3 - m) on interval i of
    basis function j.  The arithmetic is that of scipy's
    ``CubicSpline(knots, np.eye(k), bc_type="natural")`` step for step,
    so every value equals scipy's bit for bit: the slopes solve the same
    tridiagonal system by LAPACK dgtsv's elimination, row interchanges
    included, and the coefficients follow ``CubicHermiteSpline``.
    """
    k = knots.size
    dx = np.diff(knots)
    dxr = dx[:, None]
    y = np.eye(k)
    slope = np.diff(y, axis=0) / dxr
    # the slopes' system, zero second derivative at both ends; upper ends
    # in a spare 0.0 that the last interchange may move into lower
    diag = [2 * dx[0], *(2 * (dx[:-1] + dx[1:])).tolist(), 2 * dx[-1]]
    upper = [dx[0], *dx[:-1].tolist(), 0.0]
    lower = [*dx[1:].tolist(), dx[-1]]
    rhs = np.empty((k, k))
    rhs[[0, -1]] = 3 * (y[[1, -1]] - y[[0, -2]])
    rhs[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # dgtsv's forward pass: partial pivoting, where an interchange leaves
    # a second superdiagonal entry of row i in lower[i]
    for i in range(k - 1):
        if abs(diag[i]) >= abs(lower[i]):
            fact = lower[i] / diag[i]
            diag[i + 1] -= fact * upper[i]
            rhs[i + 1] -= fact * rhs[i]
            lower[i] = 0.0
        else:
            fact = diag[i] / lower[i]
            diag[i], lower[i], below = lower[i], upper[i + 1], diag[i + 1]
            diag[i + 1] = upper[i] - fact * below
            upper[i], upper[i + 1] = below, -fact * lower[i]
            rhs[i], rhs[i + 1] = rhs[i + 1].copy(), rhs[i] - fact * rhs[i + 1]
    rhs[k - 1] /= diag[k - 1]
    rhs[k - 2] = (rhs[k - 2] - upper[k - 2] * rhs[k - 1]) / diag[k - 2]
    for i in range(k - 3, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1] - lower[i] * rhs[i + 2]) / diag[i]
    t = (rhs[:-1] + rhs[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - rhs[:-1]) / dxr - t, rhs[:-1], y[:-1]))


def _quantiles(ordered: np.ndarray, k: int) -> np.ndarray:
    """``np.quantile(ordered, np.linspace(0, 1, k))`` of sorted values, bit
    for bit, without the ``np.unique`` call that loads ``numpy.ma``."""
    at = (ordered.size - 1) * np.linspace(0.0, 1.0, k)
    below = np.floor(at).astype(np.intp)
    gamma = at - below
    a, b = ordered[below], ordered[np.minimum(below + 1, ordered.size - 1)]
    return np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)


@dataclass(frozen=True)
class SplineBasis:
    """Cardinal natural cubic spline basis on fixed knots.

    Column j of the design is the unique natural cubic spline that is 1
    at knot j and 0 at the others; beyond the boundary knots every
    basis function continues linearly (the defining property of natural
    splines), so extrapolation never bends.
    """

    knots: np.ndarray

    def __post_init__(self):
        knots = np.array(self.knots, dtype=float)
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or knots.size < 3:
            raise BasisError("need at least 3 knots for a cubic basis")
        if not np.all(np.isfinite(knots)):
            raise BasisError("knots must be finite")
        if np.any(np.diff(knots) <= 0.0):
            raise BasisError(
                "knots must be strictly increasing; too few distinct "
                "predictor values for the requested basis size"
            )
        coefficients = _cardinal_coefficients(knots)
        coefficients.flags.writeable = False
        object.__setattr__(self, "_coefficients", coefficients)

    @classmethod
    def from_quantiles(cls, x: np.ndarray, k: int = DEFAULT_KNOTS) -> "SplineBasis":
        """Knots at k quantiles of x, capped at its distinct values.

        A predictor with at most k distinct values gets a knot at each
        of them; otherwise coinciding quantiles merge, so a heavily tied
        predictor may also end up with fewer than k knots.  Knots within
        ``KNOT_MERGE_TOL`` of the range of the previous one are dropped.
        Either way the basis size is the number of knots, and fewer than 3
        is a ``BasisError``.
        """
        x = np.asarray(x, dtype=float)
        if k < 3:
            raise BasisError(f"basis size must be at least 3, got {k}")
        if x.size < k:
            raise BasisError(f"need at least {k} rows to place {k} knots")
        # the distinct values of x, or of its k quantiles where x has more
        # than k: sorted, each kept where it differs from the one before
        knots = np.sort(x)
        if np.count_nonzero(knots[1:] != knots[:-1]) >= k:
            knots = np.sort(_quantiles(knots, k))
        knots = knots[np.concatenate([[True], knots[1:] != knots[:-1]])]
        gap = KNOT_MERGE_TOL * (knots[-1] - knots[0])
        return cls(knots=knots[np.concatenate([[True], np.diff(knots) > gap])])

    @property
    def k(self) -> int:
        return int(self.knots.size)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """The k basis values at each x in [knots[0], knots[-1]].

        Each x falls in the interval whose left knot is the last one at
        or below it (the last interval is closed on the right), and the
        power sum runs in the order of scipy's ``PPoly``: ``c3``,
        ``+ c2*s``, ``+ c1*(s*s)``, ``+ c0*((s*s)*s)``.  (``PPoly`` starts
        from 0.0, which changes nothing: c3 holds knot values, 1.0 or 0.0.)
        """
        knots, c = self.knots, self._coefficients
        interval = np.zeros(x.size, dtype=np.intp)
        for knot in knots[1:-1]:
            interval += x >= knot
        s = (x - np.take(knots, interval))[:, None]
        out = np.take(c[3], interval, axis=0)
        term = np.take(c[2], interval, axis=0)
        term *= s
        out += term
        power = s * s
        for coeff in (c[1], c[0]):
            # the indices are in range, so "clip" changes nothing; it
            # spares the copy that take(out=...) makes under "raise"
            np.take(coeff, interval, axis=0, out=term, mode="clip")
            term *= power
            out += term
            power *= s
        return out

    def design(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise AlignmentError("basis input must be one-dimensional")
        ends = self.knots[[0, -1]]
        out = self._evaluate(np.clip(x, *ends))
        below, above = x < ends[0], x > ends[1]
        if np.any(below) or np.any(above):
            # the value and slope at the end knot, the slope summed as
            # PPoly sums a derivative
            c, interval = self._coefficients, [0, self.k - 2]
            s = (ends - self.knots[interval])[:, None]
            slopes = (0.0 + c[2, interval]) + (c[1, interval] * s) * 2.0
            slopes += (c[0, interval] * (s * s)) * 3.0
            values = self._evaluate(ends)
            for end, outside in enumerate((below, above)):
                out[outside] = values[end] + np.outer(x[outside] - ends[end], slopes[end])
        return out

    def penalty(self) -> np.ndarray:
        """Roughness penalty QᵀQ built from divided second differences.

        Q has one row per interior knot; Q v = 0 exactly when the knot
        values v are an affine function of the knot positions, so
        constants and straight lines are never charged.
        """
        h = np.diff(self.knots)
        k = self.k
        q = np.zeros((k - 2, k))
        for i in range(k - 2):
            q[i, i] = 1.0 / h[i]
            q[i, i + 1] = -1.0 / h[i] - 1.0 / h[i + 1]
            q[i, i + 2] = 1.0 / h[i + 1]
        return q.T @ q


@dataclass(frozen=True)
class SmoothTerm:
    """One smooth term, fitted to a training column: the basis on the
    column's quantile knots, the training means of its basis functions
    but the first, and the centred training block of those functions.
    Its arrays are read-only, so fits on the same training rows can
    share it."""

    basis: SplineBasis
    means: np.ndarray
    centred: np.ndarray

    @classmethod
    def fit(cls, name: str, x: np.ndarray, k: int = DEFAULT_KNOTS) -> "SmoothTerm":
        """The term of column ``x`` with a basis of size ``k`` (fewer
        knots where quantiles coincide); ``name`` labels its errors."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise AlignmentError(f"column {name!r} must be one-dimensional")
        if not np.all(np.isfinite(x)):
            raise DegenerateError(f"column {name!r} contains non-finite values")
        try:
            basis = SplineBasis.from_quantiles(x, k)
        except BasisError as exc:
            raise BasisError(f"term {name!r}: {exc}") from None
        raw = basis.design(x)[:, 1:]
        means = raw.mean(axis=0)
        centred = raw - means
        means.flags.writeable = centred.flags.writeable = False
        return cls(basis, means, centred)


@dataclass(frozen=True)
class SmoothFit:
    """One penalized additive fit: intercept plus per-term spline parts."""

    term_names: tuple[str, ...]
    terms: tuple[SmoothTerm, ...]
    coefficients: np.ndarray
    lambdas: tuple[float, ...]
    edf: float
    term_edf: tuple[float, ...]
    gcv: float
    sse: float
    r2: float
    residual_variance: float
    n_obs: int

    def predict(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Fitted values at ``columns``, each term's block on its basis
        and centred on its training means."""
        xs = []
        for name in self.term_names:
            if name not in columns:
                raise AlignmentError(f"missing column {name!r} for prediction")
            x = np.asarray(columns[name], dtype=float)
            if xs and x.size != xs[0].size:
                raise AlignmentError(
                    f"column {name!r} has {x.size} rows, expected {xs[0].size}"
                )
            xs.append(x)
        blocks = [term.basis.design(x)[:, 1:] - term.means for x, term in zip(xs, self.terms)]
        return np.hstack([np.ones((xs[0].size, 1)), *blocks]) @ self.coefficients

    def term_summary(self) -> list[dict]:
        return [
            {"term": name, "k": term.basis.k, "lambda": lam, "edf": edf}
            for name, term, lam, edf in zip(
                self.term_names, self.terms, self.lambdas, self.term_edf
            )
        ]


class _PenalizedProblem:
    """Precomputed pieces of the penalized normal equations, reused
    across the lambda grid search.

    The grid search scores candidates with ``scan``, which touches only
    k-sized quantities; ``solve`` adds the n-row residual for the
    selected lambdas.
    """

    def __init__(self, terms: Sequence[SmoothTerm], y: np.ndarray):
        self.y = y
        self.n = y.size
        self.x = np.hstack([np.ones((self.n, 1)), *(term.centred for term in terms)])
        stops = np.cumsum([1] + [term.basis.k - 1 for term in terms]).tolist()
        self.slices = [slice(a, b) for a, b in zip(stops, stops[1:])]
        self.penalties = [term.basis.penalty()[1:, 1:] for term in terms]
        self.xtx = self.x.T @ self.x
        centered = y - y.mean()
        self.sst = float(np.sum(centered ** 2))
        self.rhs = np.column_stack([self.x.T @ self.y, self.xtx])
        self.rhs_centered = np.column_stack([self.x.T @ centered, self.xtx])
        self.xtyc = self.rhs_centered[:, 0]

    def _penalized(self, lambdas: Sequence[float]) -> np.ndarray:
        """X'X plus each term's penalty times its lambda."""
        m = self.xtx.copy()
        for sl, pen, lam in zip(self.slices, self.penalties, lambdas):
            if lam:
                m[sl, sl] += lam * pen
        return m

    @staticmethod
    def _solve(systems: np.ndarray, rhs: np.ndarray, candidates: Sequence[Sequence[float]]):
        """Coefficients for ``rhs[:, 0]`` and the influence operator
        (X'X + S)^-1 X'X of each system X'X + S in the stack, whose
        lambdas are the same entry of ``candidates``.

        One Cholesky factor L per system and the inverse L^-T L^-1 from
        the inverse of each factor: a few dozen numpy calls per stack,
        however many systems it holds, which is what pays for numpy's
        per-call overhead on systems of 30 columns.  Each step works on
        each system of a stack on its own, so a system's numbers do not
        depend on the rest of its stack.  A system that is not positive
        definite raises ``ConditioningError`` with the lambdas of the
        first such system.
        """
        try:
            factors = np.linalg.cholesky(systems)
        except np.linalg.LinAlgError:
            failed = next(
                lambdas for system, lambdas in zip(systems, candidates)
                if not _positive_definite(system)
            )
            raise ConditioningError(
                f"penalized system is singular at lambdas {tuple(failed)}: "
                "it is not positive definite"
            ) from None
        inverse_factors = _lower_inverse(factors)
        sol = (np.swapaxes(inverse_factors, -1, -2) @ inverse_factors) @ rhs
        betas = sol[:, :, 0]
        if not np.all(np.isfinite(betas)):
            raise ConditioningError("penalized solve produced non-finite coefficients")
        return betas, sol[:, :, 1:]

    def _gcv(self, sse: float, edf: float) -> float:
        denom = self.n - edf
        return math.inf if denom <= 1e-8 else self.n * sse / denom ** 2

    def scan(self, lambdas: Sequence[float], term: int, grid: Sequence[float]) -> list[float]:
        """GCV score of each grid value for ``term``, the other terms
        keeping their ``lambdas``, without an n-row pass.

        The other terms' penalties are added to X'X once; each candidate
        adds its own to a copy of that base in one stack.  The terms'
        blocks are disjoint, so every entry still gets at most one
        addition, and each matrix is the one that adding all penalties
        afresh gives.

        Solving against X'(y - ybar) gives beta with ybar taken off the
        intercept, and y - X beta_true = (y - ybar) - X beta, hence
        SSE = SST - 2 beta'X'(y - ybar) + beta'X'X beta exactly; the
        cancellation is at the scale of SST, not of y'y.
        """
        trial = list(lambdas)
        trial[term] = 0.0
        base = self._penalized(trial)
        sl, pen = self.slices[term], self.penalties[term]
        systems = np.repeat(base[None], len(grid), axis=0)
        # a lambda of 0 adds only zeros
        systems[:, sl, sl] += np.multiply.outer(grid, pen)
        candidates = [trial[:term] + [lam] + trial[term + 1:] for lam in grid]
        betas, influences = self._solve(systems, self.rhs_centered, candidates)
        scores = []
        for beta, influence in zip(betas, influences):
            sse = self.sst - 2.0 * float(beta @ self.xtyc) + float(beta @ self.xtx @ beta)
            scores.append(self._gcv(max(sse, 0.0), float(np.trace(influence))))
        return scores

    def solve(self, lambdas: Sequence[float]):
        betas, influences = self._solve(self._penalized(lambdas)[None], self.rhs, [lambdas])
        beta = betas[0]
        resid = self.y - self.x @ beta
        sse = float(resid @ resid)
        edf_diag = np.diag(influences[0])
        edf = float(edf_diag.sum())
        term_edf = tuple(float(edf_diag[sl].sum()) for sl in self.slices)
        return beta, sse, edf, term_edf, self._gcv(sse, edf)


def _lower_inverse(factors: np.ndarray) -> np.ndarray:
    """The inverse of each lower-triangular matrix in a stack, by halves:
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], with the
    halves of every matrix inverted in one call.  A size that is not a
    power of two is padded with an identity block, so that the halves
    are equal.  On a stack of 17 factors of 31 columns this took
    0.24 ms on a 2-core Xeon with one BLAS thread, against 0.66 ms for
    ``np.linalg.inv``, which solves each factor against the identity by
    LU."""
    count, size = factors.shape[0], factors.shape[-1]
    if size == 1:
        return 1.0 / factors
    if size & (size - 1):
        full = 1 << size.bit_length()
        padded = np.zeros((count, full, full))
        padded[:, :size, :size] = factors
        padded[:, range(size, full), range(size, full)] = 1.0
        return _lower_inverse(padded)[:, :size, :size]
    half = size // 2
    halves = _lower_inverse(np.concatenate([factors[:, :half, :half], factors[:, half:, half:]]))
    first, second = halves[:count], halves[count:]
    out = np.zeros_like(factors)
    out[:, :half, :half] = first
    out[:, half:, half:] = second
    out[:, half:, :half] = -(second @ factors[:, half:, :half]) @ first
    return out


def _positive_definite(system: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        return False
    return True


def fit_smooth(
    terms: Mapping[str, SmoothTerm],
    y: np.ndarray,
    lambda_grid: Sequence[float] = LAMBDA_GRID,
    max_sweeps: int = MAX_SWEEPS,
) -> SmoothFit:
    """Fit intercept + one penalized spline part per named term, on the
    training rows the terms were fitted to, whose response is ``y``;
    fits on the same rows can share terms.

    Each term's lambda is chosen from ``lambda_grid`` to minimize
    GCV = n*SSE/(n - edf)^2 with edf the trace of the influence
    operator.  With several terms the grid is scanned per term in turn
    (holding the others fixed), for at most ``max_sweeps`` sweeps, until
    every term has been scanned since the last change.  Ties prefer the
    smaller lambda; the grid must be finite, nonnegative and ascending.
    The search scores candidates from k-sized quantities only; the
    selected lambdas are solved once more with the n-row residual, which
    gives ``sse`` and ``gcv``.
    """
    if not terms:
        raise ConfigError("need at least one smooth term")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise DegenerateError("response must be a finite one-dimensional array")
    for name, term in terms.items():
        if len(term.centred) != y.size:
            raise AlignmentError(
                f"term {name!r} has {len(term.centred)} rows, response has {y.size}"
            )
    grid = check_lambda_grid(lambda_grid)
    problem = _PenalizedProblem(tuple(terms.values()), y)
    t = len(terms)

    # A term's scan depends only on the other terms' lambdas.  Once every
    # term has been scanned since the last change, any further scan would
    # repeat one made on identical inputs, so the search stops there; a
    # loop run on until a full sweep changes nothing ends on the same
    # lambdas.
    current = [grid[-1]] * t
    settled = 0
    for step in range(max_sweeps * t):
        term = step % t
        _, lam = min(zip(problem.scan(current, term, grid), grid))
        if lam != current[term]:
            current[term] = lam
            settled = 1
        else:
            settled += 1
        if settled == t:
            break

    beta, sse, edf, term_edf, gcv = problem.solve(current)
    if not math.isfinite(gcv):
        raise ConditioningError(
            "GCV is not finite at the selected smoothing parameters"
        )
    r2 = 0.0 if problem.sst == 0.0 else 1.0 - sse / problem.sst
    return SmoothFit(
        term_names=tuple(terms),
        terms=tuple(terms.values()),
        coefficients=beta,
        lambdas=tuple(current),
        edf=edf,
        term_edf=term_edf,
        gcv=gcv,
        sse=sse,
        r2=r2,
        residual_variance=max(sse / problem.n, VARIANCE_FLOOR),
        n_obs=problem.n,
    )

