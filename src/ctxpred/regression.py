"""Ordinary least squares, variance decomposition, and model identities.

The linear layer deliberately stays small: a design matrix with an
explicit intercept column, whose construction only validates the
columns (shape, finiteness); one QR triangle of ``[X | y]`` per fitted
design, from which the OLS fit, its standard errors, its
condition-number gate, the names of the columns a refused fit depends
on, and every subset fit of the variance decomposition are read; the
held-out Gaussian log-likelihood gain over a mean-only baseline, in
closed form from sums of squares; and an averaged-over-orderings
(Shapley) decomposition of R-squared into per-group shares.  Any rows
with the cross-products of ``[X | y]`` give its triangle
(``Triangle.of``), so a fold may factor small matrices only.

Two structural identities are enforced as first-class checks rather
than left to downstream eyeballing:

* swapping a predictor for (frequency - surprisal) changes individual
  coefficients in a known linear way but cannot change the fitted
  values, and
* residualizing one predictor against another preserves the first
  coefficient while turning the second into its single-predictor slope.

Both run one recipe: each named design is fitted on its raw columns
centred (which moves only the intercepts, wherever the columns' zero
lies), the deltas are measured off the fits, and one ``IdentityReport``
is returned, or ``IdentityError`` raised with the deltas beyond their
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateError,
    IdentityError,
    RankDeficiencyError,
    SizeError,
)
from .hilbert import sample_orthogonalize

INTERCEPT_LABEL = "intercept"

# Designs with condition number above this are treated as rank
# deficient for practical purposes: coefficient read-outs become
# meaningless well before exact singularity.
CONDITION_LIMIT = 1e10

# Lower bound applied to the maximum-likelihood residual variance at
# fit time so that perfectly interpolated training folds cannot produce
# infinite log-likelihoods on held-out rows.
VARIANCE_FLOOR = 1e-8

MAX_GROUPS = 12

# Tolerances of the structural identities: fits, then coefficients.
FIT_TOL = 1e-10
COEF_TOL = 1e-8


def _as_column(values, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise AlignmentError(f"column {label!r} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise DegenerateError(f"column {label!r} contains non-finite values")
    return arr


@dataclass(frozen=True)
class DesignMatrix:
    """Labelled regressor matrix with a leading intercept column.

    Building one only validates the columns (shape, finiteness);
    ``ols_fit`` gates on the design's condition number."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    @classmethod
    def build(cls, columns: Mapping[str, np.ndarray]) -> "DesignMatrix":
        cols = []
        labels = []
        n = None
        for label, values in columns.items():
            arr = _as_column(values, label)
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise AlignmentError(
                    f"column {label!r} has {arr.size} rows, expected {n}"
                )
            labels.append(label)
            cols.append(arr)
        if n is None:  # intercept-only design
            raise ConfigError("intercept-only designs need an explicit row count")
        labels.insert(0, INTERCEPT_LABEL)
        cols.insert(0, np.ones(n))
        return cls(labels=tuple(labels), matrix=np.column_stack(cols))


@dataclass(frozen=True)
class Triangle:
    """Upper triangle R of ``[X | y] = QR`` for one design and response.
    As Q is orthonormal, least squares of y on any of the design's
    columns is the same problem on those columns of R and R's last
    column: k+1 rows for the fit and every ``lmg`` subset, whatever n."""

    labels: tuple[str, ...]
    r: np.ndarray
    n_obs: int
    sst: float

    @classmethod
    def factor(cls, design: DesignMatrix, y: np.ndarray) -> "Triangle":
        y = _as_column(y, "response")
        n = design.matrix.shape[0]
        if y.size != n:
            raise AlignmentError(f"response has {y.size} rows, design has {n}")
        centered = y - y.mean()
        return cls.of(
            design.labels, np.column_stack([design.matrix, y]), n, float(centered @ centered)
        )

    @classmethod
    def of(cls, labels: tuple[str, ...], rows: np.ndarray, n_obs: int, sst: float) -> "Triangle":
        """The triangle of ``rows``: the n rows of ``[X | y]``, or any
        rows with their cross-products, such as a triangle of theirs."""
        r = np.linalg.qr(rows, mode="r")
        r.flags.writeable = False  # shared by the fit and its lmg shares
        return cls(labels=tuple(labels), r=r, n_obs=n_obs, sst=sst)

    def solve(self, cols: list[int]) -> tuple[np.ndarray, float, np.ndarray]:
        """Coefficients, SSE and singular values of the fit on the design
        columns ``cols``, with the cutoff for negligible singular values
        that lstsq would apply to the n-row system."""
        r_s = self.r[:, cols]
        r_y = self.r[:, -1]
        beta, _, _, singular = np.linalg.lstsq(
            r_s, r_y, rcond=np.finfo(float).eps * max(self.n_obs, len(cols))
        )
        resid = r_y - r_s @ beta
        return beta, float(resid @ resid), singular

    def r2(self, sse: float) -> float:
        return 0.0 if self.sst == 0.0 else 1.0 - sse / self.sst

    def fit(self) -> "FitResult":
        """The OLS fit on every design column; refused with
        ``RankDeficiencyError`` above ``CONDITION_LIMIT``."""
        n, k = self.n_obs, len(self.labels)
        if n <= k:
            raise DegenerateError(
                f"need more rows ({n}) than columns ({k}) to fit and "
                "estimate residual scale"
            )
        # the same solve as lmg's full-set subset, so fit.r2 == total_r2
        beta, sse, singular = self.solve(list(range(k)))
        # the gate reads the singular values of R's design block, which are
        # X's; a zero smallest one (0/0 included) counts as infinite
        cond = singular[0] / singular[-1] if singular[-1] > 0.0 else math.inf
        if cond > CONDITION_LIMIT:
            culprits = self.dependent_labels()
            raise RankDeficiencyError(
                f"design condition number {cond:.3e} exceeds "
                f"{CONDITION_LIMIT:.0e}; near-dependent columns: "
                + ", ".join(culprits),
                columns=culprits,
            )
        # inv(X'X) = inv(R) inv(R)' for R's k x k design block
        r_inv = np.linalg.inv(self.r[:k, :k])
        std_errors = np.sqrt(np.sum(r_inv * r_inv, axis=1) * (sse / (n - k)))
        return FitResult(
            labels=self.labels, coefficients=beta, std_errors=std_errors, sse=sse,
            r2=self.r2(sse), residual_variance=max(sse / n, VARIANCE_FLOOR), triangle=self,
        )

    def dependent_labels(self) -> list[str]:
        """The design columns, in design order, whose part outside the
        span of those before them (R's diagonal entry) is at most
        1/``CONDITION_LIMIT`` of their norm, else the one with the least
        such ratio: of two equal columns the later, whatever the rounding."""
        k = len(self.labels)
        block = self.r[:k, :k]
        diag = np.abs(np.diag(block))
        norms = np.sqrt(np.sum(block * block, axis=0))
        weak = diag <= norms / CONDITION_LIMIT
        if not weak.any():
            weak[np.argmin(diag / norms)] = True
        return [label for label, w in zip(self.labels, weak) if w]


@dataclass(frozen=True)
class FitResult:
    """OLS estimates plus the training-scale quantities reused later.

    ``residual_variance`` is the maximum-likelihood estimate SSE/n
    floored at ``VARIANCE_FLOOR``; standard errors use the usual
    degrees-of-freedom correction SSE/(n-k).  ``triangle`` is the
    factorization everything here was read from.
    """

    labels: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    sse: float
    r2: float
    residual_variance: float
    triangle: Triangle = field(repr=False)

    def coef(self, label: str) -> float:
        try:
            return float(self.coefficients[self.labels.index(label)])
        except ValueError:
            raise AlignmentError(f"no coefficient named {label!r}") from None

    def coef_dict(self) -> dict[str, float]:
        return {lab: float(b) for lab, b in zip(self.labels, self.coefficients)}


def ols_fit(design: DesignMatrix, y: np.ndarray) -> FitResult:
    return Triangle.factor(design, y).fit()


@dataclass(frozen=True)
class DeltaLogLik:
    """Held-out log-likelihood gain of a fitted model over the
    training-mean baseline (both with training-estimated variances)."""

    total: float
    per_token: float
    n_test: int
    model_loglik: float
    baseline_loglik: float


def _gaussian_loglik(n: int, sse: float, variance: float) -> float:
    """Sum of n Normal log densities of one variance, residuals' squares summing to ``sse``."""
    if variance <= 0.0 or not math.isfinite(variance):
        raise DegenerateError(f"variance must be positive, got {variance}")
    return -0.5 * n * math.log(2.0 * math.pi * variance) - 0.5 * sse / variance


def delta_loglik(
    n_test: int, sse: float, residual_variance: float,
    baseline_sse: float, baseline_variance: float,
) -> DeltaLogLik:
    """Held-out gain of a model over the training-mean baseline on
    ``n_test`` rows: the model's squared test errors sum to ``sse``, with
    its floored training ``residual_variance`` (``FitResult``'s or
    ``SmoothFit``'s); the baseline's sum to ``baseline_sse``, with the
    training variance about the training mean, floored here."""
    if n_test < 1:
        raise DegenerateError("need at least one test row")
    model = _gaussian_loglik(n_test, sse, residual_variance)
    base = _gaussian_loglik(n_test, baseline_sse, max(baseline_variance, VARIANCE_FLOOR))
    total = model - base
    return DeltaLogLik(
        total=total, per_token=total / n_test, n_test=n_test, model_loglik=model,
        baseline_loglik=base,
    )


# ---------------------------------------------------------------------------
# R-squared decomposition averaged over orderings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LmgReport:
    groups: tuple[str, ...]
    shares: np.ndarray
    raw_shares: np.ndarray
    total_r2: float
    n_fits: int

    def share(self, group: str) -> float:
        try:
            return float(self.shares[self.groups.index(group)])
        except ValueError:
            raise AlignmentError(f"no group named {group!r}") from None


def lmg(triangle: Triangle, groups: Mapping[str, Sequence[str]]) -> LmgReport:
    """Decompose model R-squared into per-group shares.

    The groups partition the design columns of ``triangle`` but the
    intercept.  Each group's share is its R-squared increment averaged
    over all orders in which the groups could have been added, computed
    by subset (Shapley) weighting from a cache of 2**p subset fits read
    off the triangle.  The shares are nonnegative up to rounding and sum
    to the full-model R-squared; a sum mismatch beyond 1e-10 or a share
    below -1e-10 is reported as a numerical failure rather than silently
    clipped.
    """
    names = tuple(groups)
    p = len(names)
    if p == 0:
        raise ConfigError("need at least one predictor group")
    if p > MAX_GROUPS:
        raise SizeError(
            f"{p} groups would need {2 ** p} subset fits; the limit is "
            f"{MAX_GROUPS} groups ({2 ** MAX_GROUPS} fits)"
        )
    index = {label: i for i, label in enumerate(triangle.labels) if i > 0}
    seen: set[str] = set()
    group_cols = []
    for gname in names:
        members = list(groups[gname])
        if not members:
            raise ConfigError(f"group {gname!r} is empty")
        overlap = seen & set(members)
        if overlap:
            raise ConfigError(f"columns {sorted(overlap)} appear in two groups")
        seen.update(members)
        for m in members:
            if m not in index:
                raise ConfigError(f"group {gname!r} references unknown column {m!r}")
        group_cols.append([index[m] for m in members])
    unused = set(index) - seen
    if unused:
        raise ConfigError(f"columns {sorted(unused)} belong to no group")

    r2_cache = np.zeros(2 ** p)
    for mask in range(1, 2 ** p):
        cols = [0]
        for g in range(p):
            if mask >> g & 1:
                cols.extend(group_cols[g])
        r2_cache[mask] = triangle.r2(triangle.solve(cols)[1])

    # weight of a subset of size s when adding one more group
    fact = [math.factorial(i) for i in range(p + 1)]
    weight = [fact[s] * fact[p - s - 1] / fact[p] for s in range(p)]

    raw = np.zeros(p)
    for g in range(p):
        bit = 1 << g
        for mask in range(2 ** p):
            if mask & bit:
                continue
            s = int(mask).bit_count()
            raw[g] += weight[s] * (r2_cache[mask | bit] - r2_cache[mask])

    total = float(r2_cache[-1])
    if abs(raw.sum() - total) > 1e-10:
        raise DegenerateError(
            f"decomposition sum {raw.sum():.3e} differs from model "
            f"R-squared {total:.3e} by more than 1e-10"
        )
    if np.any(raw < -1e-10):
        worst = float(raw.min())
        raise DegenerateError(
            f"share {worst:.3e} is negative beyond rounding tolerance"
        )
    shares = np.clip(raw, 0.0, None)
    return LmgReport(
        groups=names,
        shares=shares,
        raw_shares=raw.copy(),
        total_r2=total,
        n_fits=2 ** p,
    )


# ---------------------------------------------------------------------------
# Structural identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """The named fits of one identity check and the deltas it measured:
    ``surprisal`` and ``pmi`` for the equivalence, ``raw``,
    ``residualized`` and ``reduced`` for the residualization."""

    fits: dict[str, FitResult]
    deltas: dict[str, float] = field(repr=False)


def _centred_fits(
    designs: Mapping[str, Mapping[str, np.ndarray]], y: np.ndarray
) -> tuple[dict[str, FitResult], dict[str, np.ndarray]]:
    """Fit each named design on its raw columns centred, and take its
    fitted values.  Centring moves only the intercepts, and keeps the
    condition gate off where a column's zero lies.  One n-row design is
    alive at a time."""
    fits, fitted = {}, {}
    for name, columns in designs.items():
        design = DesignMatrix.build({k: np.subtract(v, np.mean(v)) for k, v in columns.items()})
        fits[name] = ols_fit(design, y)
        fitted[name] = design.matrix @ fits[name].coefficients
        del design
    return fits, fitted


def _verified(
    identities: str, fits: dict[str, FitResult], deltas: dict[str, float],
    tolerances: Mapping[str, float],
) -> IdentityReport:
    """The report, once every delta with a tolerance is within it;
    else ``IdentityError`` names the deltas beyond theirs."""
    broken = {k: deltas[k] for k, tol in tolerances.items() if deltas[k] > tol}
    if broken:
        raise IdentityError(
            f"{identities} identities violated: "
            + ", ".join(f"{k}={v:.3e}" for k, v in broken.items()),
            deltas=broken,
        )
    return IdentityReport(fits=fits, deltas=deltas)


def equivalence_report(
    y: np.ndarray, surprisal: np.ndarray, frequency: np.ndarray,
    pmi: np.ndarray | None = None, extras: Mapping[str, np.ndarray] | None = None,
) -> IdentityReport:
    """Fit the surprisal model and the pmi model on raw (unstandardized)
    columns and verify the exact reparameterization identities.

    Because pmi = frequency - surprisal pointwise, the two designs span
    the same space: fits and R-squared must agree to ``FIT_TOL`` and the
    coefficients must satisfy beta_pmi = -beta_surprisal and
    beta_freq(pmi model) = beta_freq(surprisal model) + beta_surprisal
    to ``COEF_TOL``.  Standardizing the columns first would rescale the
    coefficients and break both identities, so callers must pass raw
    values.
    """
    s = _as_column(surprisal, "surprisal")
    f = _as_column(frequency, "frequency")
    p = f - s if pmi is None else _as_column(pmi, "pmi")
    fits, fitted = _centred_fits({
        "surprisal": {"surprisal": s, "frequency": f, **(extras or {})},
        "pmi": {"pmi": p, "frequency": f, **(extras or {})},
    }, y)
    fit_s, fit_p = fits["surprisal"], fits["pmi"]
    deltas = {
        "r2": abs(fit_s.r2 - fit_p.r2),
        "prediction": float(np.max(np.abs(fitted["surprisal"] - fitted["pmi"]))),
        "beta_pmi_vs_neg_surprisal": abs(fit_p.coef("pmi") + fit_s.coef("surprisal")),
        "beta_frequency_shift": abs(
            fit_p.coef("frequency") - (fit_s.coef("frequency") + fit_s.coef("surprisal"))
        ),
        "intercept": abs(fit_p.coef(INTERCEPT_LABEL) - fit_s.coef(INTERCEPT_LABEL)),
    }
    # the intercept delta is reported but has no tolerance
    return _verified("model-equivalence", fits, deltas, {
        "r2": FIT_TOL, "prediction": FIT_TOL,
        "beta_pmi_vs_neg_surprisal": COEF_TOL, "beta_frequency_shift": COEF_TOL,
    })


def residualization_triplet(
    y: np.ndarray, x1: np.ndarray, x2: np.ndarray, labels: tuple[str, str] = ("x1", "x2"),
) -> IdentityReport:
    """Check the two coefficient-preservation identities of sample
    residualization on three nested fits: ``raw`` keeps both
    predictors, ``residualized`` replaces the first by its residual
    against the second, ``reduced`` drops the first.

    The residualized column's coefficient equals the raw model's x1
    coefficient, and the x2 coefficient collapses to the slope of the
    x2-only model.  Both must hold to ``COEF_TOL``, otherwise
    ``IdentityError`` is raised.
    """
    l1, l2 = labels
    x1 = _as_column(x1, l1)
    x2 = _as_column(x2, l2)
    x1_perp = sample_orthogonalize(x1, x2)
    x1_centered = x1 - x1.mean()
    if float(x1_perp @ x1_perp) <= 1e-12 * max(float(x1_centered @ x1_centered), 1e-30):
        raise DegenerateError(
            f"{l1!r} is numerically collinear with {l2!r}: nothing is "
            "left after residualization"
        )
    fits, _ = _centred_fits({
        "raw": {l1: x1, l2: x2}, "residualized": {f"{l1}_perp": x1_perp, l2: x2},
        "reduced": {l2: x2},
    }, y)
    deltas = {
        "first_coefficient": abs(fits["raw"].coef(l1) - fits["residualized"].coef(f"{l1}_perp")),
        "second_coefficient": abs(fits["residualized"].coef(l2) - fits["reduced"].coef(l2)),
    }
    return _verified("residualization", fits, deltas, dict.fromkeys(deltas, COEF_TOL))
