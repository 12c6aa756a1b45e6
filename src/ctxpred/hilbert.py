"""Weighted inner-product geometry for context-conditioned variables.

A random variable here is a real value attached to every (context,
next-symbol) pair the model can produce.  The natural measure on those
pairs weights a context by its normalized prefix mass and the symbol by
its conditional probability; expectations, inner products, and
orthogonal projections are then finite weighted sums over a support.

Every variable the package builds on that support (surprisal, frequency,
PMI: ``surprisal_variable`` and its kin below) depends on the context
only through its state, so exact mode lumps
the contexts of each state together: the support is the (state, symbol)
cells with positive probability, weighted by the state's share of the
context mass.  That share is the state's expected visit count over the
prefix normalizer, both read off the model's visit solve, so the measure
is exact rather than truncated, and lumping changes no value of any such
variable.  Sample mode applies the same projection algebra to empirical
vectors (one entry per corpus token) with moments estimated on training
rows only, so held-out rows never leak into the fit.  It is the
row-level form: ``analyze`` reads its projections off the fold
triangles (``pipeline._model_map``), while
``regression.residualization_triplet`` and n-row reference
computations call sample mode.

The exact projection is always centred, so its residual is uncorrelated
with, and orthogonal to, the anchor.  Both modes hand their first and
second moments to one estimator of the coefficient.

Reductions use numpy's pairwise summation in a fixed row order, keeping
results reproducible bit for bit on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DegenerateError
from .lm import AutoregressiveLM, UnigramLM, prefix_normalizer, unigram_minimizer

# At or below this variance a projection direction is treated as zero.
ZERO_NORM_TOL = 1e-24


@dataclass(frozen=True)
class MeasureTable:
    """Exact joint context/next-symbol measure, lumped by state.

    Rows are the (state, symbol) cells of the visited states with
    positive conditional probability, stored column-wise and ordered by
    state then symbol:
    ``row_state`` indexes ``source.states``, ``row_symbol`` indexes
    ``symbols`` (units followed by the end-of-string symbol),
    ``row_cond`` is the conditional probability of the symbol in that
    state, and ``weights`` carries the joint mass of all contexts in the
    state.
    """

    source: AutoregressiveLM
    symbols: tuple[str, ...]
    weights: np.ndarray
    row_state: np.ndarray
    row_symbol: np.ndarray
    row_cond: np.ndarray

    @classmethod
    def from_lm(cls, lm: AutoregressiveLM) -> "MeasureTable":
        """The mass of a state's contexts is its expected visit count over
        the prefix normalizer, both from the model's one visit solve."""
        visits, conds = lm.visits, lm.next_probs
        keep = (conds > 0.0) & (visits > 0.0)[:, None]
        row_state, row_symbol = np.nonzero(keep)
        row_cond = conds[row_state, row_symbol]
        weights = (visits[row_state] / prefix_normalizer(lm)) * row_cond
        return cls(
            source=lm,
            symbols=lm.alphabet.symbols,
            weights=weights,
            row_state=row_state,
            row_symbol=row_symbol,
            row_cond=row_cond,
        )

    @property
    def n_rows(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class RandomVariableTable:
    """A real variable on the support of one measure."""

    measure: MeasureTable
    values: np.ndarray
    label: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.measure.n_rows,):
            raise AlignmentError(
                f"variable {self.label!r} has {vals.shape} values for "
                f"{self.measure.n_rows} rows"
            )
        if not np.all(np.isfinite(vals)):
            raise DegenerateError(f"variable {self.label!r} has non-finite values")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ProjectionCoefficient:
    """Fitted scalar for removing one variable's centred component along
    another.

    Applies as (x - x_mean) - alpha * (z - z_mean).  The same record
    serves the exact measure-based projection and the sample
    residualization, so a coefficient fitted on training rows can be
    replayed on held-out rows.
    """

    alpha: float
    x_mean: float
    z_mean: float

    def apply(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return (x - self.x_mean) - self.alpha * (z - self.z_mean)


def _coefficient(
    x_mean: float, z_mean: float, cov: float, var: float, z_label: str
) -> ProjectionCoefficient:
    """The record for the centred moments cov(x, z) and var(z), which
    both sources of moments scale alike; a direction whose variance is
    at most ``ZERO_NORM_TOL`` is refused."""
    if var <= ZERO_NORM_TOL:
        raise DegenerateError(f"projection direction {z_label!r} has zero variance")
    return ProjectionCoefficient(alpha=cov / var, x_mean=x_mean, z_mean=z_mean)


def _require_same_measure(x: RandomVariableTable, y: RandomVariableTable) -> None:
    if x.measure is not y.measure:
        raise AlignmentError(
            f"variables {x.label!r} and {y.label!r} live on different measures"
        )


def inner_product(x: RandomVariableTable, y: RandomVariableTable) -> float:
    """Measure-weighted inner product sum_rows w * x * y.

    np.sum reduces with pairwise summation in fixed row order, so the
    value is reproducible for identical inputs.
    """
    _require_same_measure(x, y)
    return float(np.sum(x.measure.weights * x.values * y.values))


def mean(x: RandomVariableTable) -> float:
    """Expectation under the measure, renormalized by its total weight."""
    w = x.measure.weights
    return float(np.sum(w * x.values) / np.sum(w))


def project_complement(
    x: RandomVariableTable, z: RandomVariableTable
) -> tuple[RandomVariableTable, ProjectionCoefficient]:
    """Remove from x its centred component along z; returns residual and
    coefficient.

    Both variables are centred under the measure first, so the residual
    has mean zero and is uncorrelated with z as well as orthogonal to it.
    """
    _require_same_measure(x, z)
    mx, mz = mean(x), mean(z)
    xc = x.values - mx
    zc = z.values - mz
    w = x.measure.weights
    cov, var = float(np.sum(w * xc * zc)), float(np.sum(w * zc * zc))
    coeff = _coefficient(mx, mz, cov, var, z.label)
    residual = RandomVariableTable(
        measure=x.measure,
        values=coeff.apply(x.values, z.values),
        label=f"{x.label}_perp_{z.label}",
    )
    return residual, coeff


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
    if np.any(probs[np.flatnonzero(np.bincount(measure.row_symbol))] <= 0.0):
        raise DegenerateError("q must cover every symbol on the support")
    return RandomVariableTable(
        measure=measure, values=-np.log(probs[measure.row_symbol]), label="frequency"
    )


def pmi_variable(measure: MeasureTable, q: UnigramLM | None = None) -> RandomVariableTable:
    """Pointwise dependence of symbol on context: frequency - surprisal."""
    f = frequency_variable(measure, q)
    s = surprisal_variable(measure)
    return RandomVariableTable(measure=measure, values=f.values - s.values, label="pmi")


# -- sample mode -----------------------------------------------------------


def fit_projection(
    x_train: np.ndarray, z_train: np.ndarray, z_label: str = "z"
) -> ProjectionCoefficient:
    """Estimate the residualization coefficient from training rows only.

    alpha is the ratio of unbiased sample covariances cov(x, z) /
    var(z); together with the training means it can be applied to any
    later rows without re-estimating moments.
    """
    x = np.asarray(x_train, dtype=float)
    z = np.asarray(z_train, dtype=float)
    if x.shape != z.shape or x.ndim != 1:
        raise AlignmentError(
            f"training vectors must be equal-length 1-d arrays, got {x.shape} and {z.shape}"
        )
    if x.size < 2:
        raise DegenerateError("need at least two rows to fit a projection")
    mx = float(np.mean(x))
    mz = float(np.mean(z))
    xc = x - mx
    zc = z - mz
    dof = x.size - 1
    cov, var = float(np.sum(xc * zc) / dof), float(np.sum(zc * zc) / dof)
    return _coefficient(mx, mz, cov, var, z_label)


def sample_orthogonalize(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """In-sample residualization: center both vectors, subtract the
    least-squares component of x along z.  The result has zero mean and
    zero sample covariance with z."""
    coeff = fit_projection(x, z)
    return coeff.apply(x, z)
