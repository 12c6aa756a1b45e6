"""Cross-validated analysis: predictor table to report.

This module owns the experiment recipe.  Given a predictor source (an
internal LM or an external per-token file) and raw reading-time
observations it:

1. aggregates participants and scores every token of the text,
2. drops the tokens nobody read and the document-initial rows (no
   spillover values there), counting each,
3. takes U = [1 | predictors | response] off the scored table, a column
   at a time, deals rows or documents into folds, and factors each
   fold's rows of U into a small QR triangle, in one pass; the QR of the
   folds' triangles is the all-rows triangle,
4. per fold, reads the training means, SDs and projections off the QR
   of the other folds' triangles, maps each competing linear model (raw
   surprisal, PMI rewrite, and the orthogonalized variant) to a column
   map T of U, fits it on the triangle of ``R T``, decomposes training
   R-squared into per-group shares, and scores the held-out rows
   against the training-mean baseline through the fold's triangle,
5. optionally fits smooth (spline) counterparts of each model on the
   fold's rows of U times T; the models share a fold's smooth terms,
   each fitted at its first model's use and released after its last
   model's fit, so a fold holds the terms of one model and those a later
   model still reads (at most 6 of the 12 with the default models),
6. fits each model in original units on the all-rows triangle, by the
   same recipe with the map in the sources' units, centred.

The reparameterization-identity check runs on n rows of U's raw
columns, apart from the fold machinery, once U is built and before the
folds' arrays are: the scored table is gone by then, and the fold rows
do not yet exist.  A refusal it finds is raised after the folds, so a
fold's refusal still comes first.

Nothing here touches the filesystem; the CLI layer writes the returned
report.  Test rows never contribute to means, variances,
projection coefficients, or fitted parameters.  Linear folds touch no
row and run in this process; with smooth fits the folds run in forked
worker processes, one per usable CPU, merged in fold order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .choices import (
    DEFAULT_KNOTS,
    FOLD_UNITS,
    LAMBDA_GRID,
    LMG_GROUPINGS,
    MODEL_KINDS,
    SWAP_TARGET,
    check_choice,
    check_predictors,
    check_swap_ortho,
)
from .corpus import FoldAssignment, TokenTable, aggregate_participants, kfold
from .errors import ConfigError, CtxpredError, DegenerateError, RankDeficiencyError
from .predictors import PREDICTOR_NAMES, build_predictor_table
from .regression import (
    INTERCEPT_LABEL,
    FitResult,
    Triangle,
    delta_loglik,
    equivalence_report,
    lmg,
)
from .smooth import SmoothTerm, fit_smooth


@dataclass(frozen=True)
class ModelSpec:
    """Column recipe for one competing model.

    ``pairs`` lists (column label, source column, anchor column or
    None); anchored columns are replaced by their training-fold
    residual against the anchor.  Spillover twins reuse the recipe with
    ``prev_`` sources and their own training-fold projection.
    """

    name: str
    pairs: tuple[tuple[str, str, str | None], ...]


def model_spec(kind: str, include_length: bool, swap_ortho: str | None) -> ModelSpec:
    """The sources are the focal predictor (``pmi`` for the PMI model,
    else ``surprisal``), ``frequency``, and ``length`` if included.  The
    ortho model residualizes each source but its anchor as
    ``ortho_<source>``; the anchor is ``frequency``, or ``surprisal``
    when ``swap_ortho`` is ``"frequency"``."""
    check_predictors((kind,))
    anchor = None
    if kind == "ortho":
        anchor = {None: "frequency", SWAP_TARGET: "surprisal"}[check_swap_ortho(swap_ortho)]
    sources = ("pmi" if kind == "pmi" else "surprisal", "frequency")
    if include_length:
        sources += ("length",)
    pairs = tuple(
        (src, src, None) if anchor in (None, src) else (f"ortho_{src}", src, anchor)
        for src in sources
    )
    return ModelSpec(name=kind, pairs=pairs)


def _spill(label: str) -> str:
    return f"prev_{label}"


def _design_columns(spec: ModelSpec) -> Iterator[tuple[str, str, str | None]]:
    """(label, source, anchor) of every design column of ``spec``: each
    pair, then its spillover twin, which reads the ``prev_`` source and
    anchors on the ``prev_`` anchor."""
    for label, source, anchor in spec.pairs:
        yield label, source, anchor
        yield _spill(label), _spill(source), None if anchor is None else _spill(anchor)


def _groups(spec: ModelSpec, grouping: str) -> dict[str, list[str]]:
    if grouping == "paired":
        return {label: [label, _spill(label)] for label, _, _ in spec.pairs}
    return {label: [label] for label, _, _ in _design_columns(spec)}


# the union of source columns, U = [1 | predictors | response]: a
# model's design on any rows is those rows of U times a column map
_UNION = (INTERCEPT_LABEL, *PREDICTOR_NAMES, "rt_ms")
_Y = len(_UNION) - 1


def _usable_rows(aggregated: TokenTable, source) -> tuple[np.ndarray, TokenTable, int, int]:
    """U on the scored rows that enter the fits, column-major, their
    ``doc`` and ``token`` codes, and the counts of the rows dropped as
    unread and as document-initial (no spillover values).  Each scored
    column is dropped once its rows are in U."""
    records = build_predictor_table(aggregated, source)
    unread = np.isnan(records["rt_ms"])
    initial = np.isnan(records["prev_surprisal"]) & ~unread
    keep = ~(unread | initial)
    u = np.empty((int(np.count_nonzero(keep)), len(_UNION)), order="F")
    u[:, 0] = 1.0
    for j, name in enumerate(_UNION[1:], start=1):
        np.compress(keep, records.columns.pop(name), out=u[:, j])
    codes = {name: records[name][keep] for name in ("doc", "token")}
    n_unread, n_initial = int(np.count_nonzero(unread)), int(np.count_nonzero(initial))
    return u, TokenTable(codes, records.doc_ids, records.types), n_unread, n_initial


class _FoldRows(NamedTuple):
    """Rows of U kept as their QR triangle (at most one row per column of
    U), their count, and the least and greatest value of each column."""

    triangle: np.ndarray
    n_rows: int
    low: np.ndarray
    high: np.ndarray

    @classmethod
    def of(cls, u_rows: np.ndarray) -> "_FoldRows":
        r = np.linalg.qr(u_rows, mode="r")
        return cls(r, len(u_rows), u_rows.min(axis=0), u_rows.max(axis=0))

    @classmethod
    def merge(cls, parts: Sequence["_FoldRows"]) -> "_FoldRows":
        """The union of disjoint rows: the QR of their stacked triangles."""
        r = np.linalg.qr(np.vstack([p.triangle for p in parts]), mode="r")
        low, high = np.min([p.low for p in parts], axis=0), np.max([p.high for p in parts], axis=0)
        return cls(r, sum(p.n_rows for p in parts), low, high)


@dataclass(frozen=True)
class _FoldContext:
    """What every fold reads: the usable rows' codes, their U, the folds,
    their rows of U and all of them, the models, their groups, the smoothing."""

    rows: TokenTable
    u: np.ndarray
    assignment: FoldAssignment
    fold_rows: tuple[_FoldRows, ...]
    all_rows: _FoldRows
    specs: tuple[ModelSpec, ...]
    groups: tuple[dict[str, list[str]], ...]
    smooth: bool
    smooth_k: int
    lambda_grid: Sequence[float]


class _ModelFold(NamedTuple):
    """One model's records from one fold: its fold entry, its LMG shares
    (one per group), the anchor correlations of its residualized
    columns, and its smooth fold entry (None without ``smooth``)."""

    entry: dict
    shares: list[float]
    anchor_corr: dict[str, float]
    smooth_entry: dict | None


def _model_map(rows: _FoldRows, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """The column maps T of ``spec``'s design ``U @ T`` on ``rows``,
    standardized and in original units (a residualized column in the
    source's units), and each residualized column's correlation with its
    anchor, from the rows' triangle R: the means are ``R[0] / R[0, 0]``,
    the centred cross-products those of ``R[1:]``.  A source constant on
    the rows, by their least and greatest value, is refused."""
    r = rows.triangle
    e = np.eye(len(_UNION))

    def standardized(name: str) -> tuple[np.ndarray, float]:
        j = _UNION.index(name)
        if not rows.low[j] < rows.high[j]:
            raise DegenerateError(f"{name}: zero or non-finite variance")
        sd = math.sqrt(float(r[1:, j] @ r[1:, j]) / (rows.n_rows - 1))
        t = np.zeros(len(_UNION))
        t[0], t[j] = -(r[0, j] / r[0, 0]) / sd, 1.0 / sd
        return t, sd

    columns, original, anchor_corr = [e[0]], [e[0]], {}
    for label, source, anchor in _design_columns(spec):
        t, sd = standardized(source)
        if anchor is None:
            original.append(e[_UNION.index(source)])
        else:
            z, _ = standardized(anchor)
            tc, zc = r[1:] @ t, r[1:] @ z
            t = t - float(tc @ zc) / float(zc @ zc) * z
            v, w = r @ t, r @ z
            denom = math.sqrt(float(v @ v) * float(w @ w))
            anchor_corr[label] = 0.0 if denom == 0.0 else float(v @ w) / denom
            original.append(t * sd)
        columns.append(t)
    return np.column_stack(columns), np.column_stack(original), anchor_corr


def _fit(rows: _FoldRows, spec: ModelSpec, t: np.ndarray) -> FitResult:
    """The OLS fit of ``rows``' response on ``spec``'s design ``U @ t``,
    read off the rows' triangle R as the fit on ``[R t | R e_y]``."""
    r = rows.triangle
    labels = (INTERCEPT_LABEL, *(label for label, _, _ in _design_columns(spec)))
    sst = float(r[1:, _Y] @ r[1:, _Y])
    return Triangle.of(labels, np.column_stack([r @ t, r[:, _Y]]), rows.n_rows, sst).fit()


def _sse(rows: _FoldRows, coef: np.ndarray) -> float:
    """Squared errors on ``rows`` of the fitted values ``U @ coef`` (``coef[_Y]`` 0), summed."""
    e = rows.triangle @ coef - rows.triangle[:, _Y]
    return float(e @ e)


def _columns(spec: ModelSpec, u: np.ndarray, t: np.ndarray, rows: np.ndarray) -> dict:
    """``spec``'s design columns but the intercept on the ``rows`` of U, by its map ``t``."""
    x = u[rows] @ t[:, 1:]
    return {label: x[:, i] for i, (label, _, _) in enumerate(_design_columns(spec))}


def _run_fold(context: _FoldContext, f: int) -> list[_ModelFold]:
    """Fit every model on fold ``f``'s training rows and score its test
    rows; each column is standardized with training statistics only.  The
    linear fits and scores read the triangles of the fold's rows of U."""
    test = context.fold_rows[f]
    train = _FoldRows.merge([rows for g, rows in enumerate(context.fold_rows) if g != f])
    r = train.triangle
    # the training-mean baseline, shared by the models
    base_sse = _sse(test, np.eye(len(_UNION))[0] * (r[0, _Y] / r[0, 0]))
    base_variance = float(r[1:, _Y] @ r[1:, _Y]) / train.n_rows
    if context.smooth:
        tr, te = context.assignment.train_idx(f), context.assignment.test_idx(f)
        y_tr = context.u[tr, _Y]
        # the fold's smooth terms, shared by the models: a label names one
        # column within a fold; each is released after its last reader
        terms: dict[str, SmoothTerm] = {}
        last_reader = {
            label: i
            for i, spec in enumerate(context.specs) for label, _, _ in _design_columns(spec)
        }
    # every map first: a source constant on training rows is refused before any fit
    maps = [_model_map(train, spec) for spec in context.specs]
    out = []
    for i, (spec, groups, (t, original, anchor_corr)) in enumerate(
        zip(context.specs, context.groups, maps)
    ):
        try:
            fit = _fit(train, spec, t)
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(
                f"fold {f}, model {spec.name}: {exc}{_lacking_note(context, spec, f)}",
                columns=exc.columns,
            ) from exc
        t_beta = t @ fit.coefficients
        delta = delta_loglik(
            test.n_rows, _sse(test, t_beta), fit.residual_variance, base_sse, base_variance
        )
        shares = [float(share) for share in lmg(fit.triangle, groups).shares]
        entry = {
            "fold": f,
            "r2": fit.r2,
            "coeffs": fit.coef_dict(),
            # in original units, for designs without residualized columns
            "coeffs_raw": None if anchor_corr else dict(
                zip(fit.labels, map(float, t_beta @ original))
            ),
            "llh": delta.model_loglik / delta.n_test,
            "delta_llh": delta.per_token,
        }
        smooth_entry = None
        if context.smooth:
            # no loop variable keeps a view of the columns alive through the fit
            terms.update({
                label: SmoothTerm.fit(label, x, context.smooth_k)
                for label, x in _columns(spec, context.u, t, tr).items() if label not in terms
            })
            sfit = fit_smooth(
                {label: terms[label] for label in fit.labels[1:]}, y_tr,
                lambda_grid=context.lambda_grid,
            )
            resid = context.u[te, _Y] - sfit.predict(_columns(spec, context.u, t, te))
            sdelta = delta_loglik(
                test.n_rows, float(resid @ resid), sfit.residual_variance, base_sse, base_variance
            )
            smooth_entry = {
                "fold": f,
                "r2": sfit.r2,
                "llh": sdelta.model_loglik / sdelta.n_test,
                "delta_llh": sdelta.per_token,
                "terms": sfit.term_summary(),
            }
            # the fit holds its terms
            del sfit
            terms = {label: term for label, term in terms.items() if last_reader[label] > i}
        out.append(_ModelFold(entry, shares, anchor_corr, smooth_entry))
    return out


def _lacking_note(context: _FoldContext, spec: ModelSpec, f: int) -> str:
    """A refusal's note of the token types that fold ``f``'s training rows
    lack.  A lacking type can make the type-level columns collinear, so
    the note is made only where ``spec``'s design is full rank on all rows."""
    try:
        _fit(context.all_rows, spec, _model_map(context.all_rows, spec)[0])
    except RankDeficiencyError:
        return ""
    # the codes of the rows' types that no training row holds, by counts:
    # np.setdiff1d would load numpy.ma
    tokens, n_types = context.rows["token"], len(context.rows.types)
    held = np.bincount(tokens[context.assignment.fold_of_row != f], minlength=n_types)
    lacking = np.flatnonzero((np.bincount(tokens, minlength=n_types) > 0) & (held == 0)).tolist()
    names = sorted(repr(context.rows.types[c]) for c in lacking)
    more = f" ({len(names)} types in all)" if len(names) > 5 else ""
    return f"; the fold's training rows hold no {', '.join(names[:5])}{more}" if names else ""


def _fold_workers(folds: int) -> int:
    """Worker processes for the fold loop: one per CPU this process may run
    on, at most one per fold; 1 (in-process) without fork or CPU affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(folds, len(os.sched_getaffinity(0)))


# the fold context of a worker process, set by its pool's initializer
_worker_context: _FoldContext | None = None


def _init_worker(context: _FoldContext) -> None:
    global _worker_context
    _worker_context = context


def _run_worker_fold(f: int) -> list[_ModelFold]:
    return _run_fold(_worker_context, f)


def _run_folds(context: _FoldContext, folds: int) -> list[list[_ModelFold]]:
    """``_run_fold`` of every fold, in fold order.  Linear folds run in
    this process.  Smooth fits need the rows: their folds run in forked
    workers, which inherit the context rather than receive it pickled,
    and a failure re-raises the exception of the lowest failing fold
    once the pool has shut down."""
    workers = _fold_workers(folds) if context.smooth else 1
    if workers == 1:
        return [_run_fold(context, f) for f in range(folds)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(context,),
    ) as pool:
        # map yields in fold order; leaving it early cancels the folds
        # not yet started, and leaving the block joins the workers
        return list(pool.map(_run_worker_fold, range(folds)))


def analyze_observations(source, observations: TokenTable, seed: int, **options) -> dict:
    """``analyze_tokens`` on the per-token means of the readings."""
    return analyze_tokens(source, aggregate_participants(observations), seed, **options)


def analyze_tokens(
    source,
    aggregated: TokenTable,
    seed: int,
    folds: int = 10,
    predictors: Sequence[str] = MODEL_KINDS,
    include_length: bool = True,
    swap_ortho: str | None = None,
    smooth: bool = False,
    lmg_grouping: str = LMG_GROUPINGS[0],
    fold_by: str = FOLD_UNITS[0],
    smooth_k: int = DEFAULT_KNOTS,
    lambda_grid: Sequence[float] = LAMBDA_GRID,
) -> dict:
    """The report of the cross-validated analysis of ``aggregated`` (one
    row per token) on the predictors of ``source``."""
    predictors = check_predictors(predictors)
    check_swap_ortho(swap_ortho)
    check_choice("lmg grouping", LMG_GROUPINGS, lmg_grouping)
    check_choice("fold unit", FOLD_UNITS, fold_by)
    specs = [model_spec(kind, include_length, swap_ortho) for kind in predictors]
    groups = tuple(_groups(spec, lmg_grouping) for spec in specs)

    u, rows, n_unread, n_initial = _usable_rows(aggregated, source)
    if len(rows) < folds:
        raise ConfigError(
            f"only {len(rows)} usable rows after dropping document-initial "
            f"tokens; need at least {folds}"
        )
    # reparameterization identities on the raw, unstandardized columns
    # (standardization would rescale away the exact coefficient algebra),
    # checked before the folds' arrays exist; a refusal waits for the
    # folds, so that theirs come first
    surp, freq, pmi = (u[:, _UNION.index(name)] for name in ("surprisal", "frequency", "pmi"))
    try:
        equivalence, refusal = equivalence_report(u[:, _Y], surp, freq, pmi=pmi), None
    except CtxpredError as exc:
        equivalence, refusal = None, exc

    doc_ids = rows["doc"] if fold_by == "document" else None
    assignment = kfold(len(rows), folds, seed, doc_ids=doc_ids)
    # the one pass over the rows of U that the linear folds need
    fold_rows = tuple(_FoldRows.of(u[assignment.test_idx(f)]) for f in range(folds))
    # the pooled fits, and a refusal's note, read the all-rows triangle
    all_rows = _FoldRows.merge(fold_rows)

    context = _FoldContext(
        rows=rows, u=u, assignment=assignment, fold_rows=fold_rows, all_rows=all_rows,
        specs=tuple(specs), groups=groups, smooth=smooth, smooth_k=smooth_k,
        lambda_grid=lambda_grid,
    )
    fold_records = _run_folds(context, folds)
    # each model's records, in fold order
    model_records = list(zip(*fold_records))
    models = [
        _linear_entry(spec, model_groups, records, all_rows)
        for spec, model_groups, records in zip(specs, groups, model_records)
    ]
    if smooth:
        models += [_smooth_entry(spec, records) for spec, records in zip(specs, model_records)]
    ortho_diag = {
        f"{spec.name}:{lab}": max(abs(record.anchor_corr[lab]) for record in records)
        for spec, records in zip(specs, model_records)
        for lab in records[0].anchor_corr
    }
    if refusal is not None:
        raise refusal

    return {
        "n_rows": len(rows),
        "n_dropped_document_initial": n_initial,
        "n_dropped_unread": n_unread,
        "folds": folds,
        "fold_mode": assignment.mode,
        "seed": seed,
        "models": models,
        "equivalence": {"deltas": {k: float(v) for k, v in equivalence.deltas.items()}},
        "ortho_train_correlations": {k: float(v) for k, v in sorted(ortho_diag.items())},
    }


def _linear_entry(
    spec: ModelSpec, groups: Mapping[str, list[str]], records: Sequence[_ModelFold],
    all_rows: _FoldRows,
) -> dict:
    """A linear model's report entry: its fold entries, their mean LMG
    shares and held-out score, and its full-sample fit in original units."""
    folds = [record.entry for record in records]
    fold_shares = [record.shares for record in records]
    lmg_block = {
        "groups": list(groups),
        "shares": [float(v) for v in np.mean(fold_shares, axis=0)],
        "total_r2": float(np.mean([e["r2"] for e in folds])),
        "fold_shares": fold_shares,
    }
    return {
        "model": spec.name,
        "kind": "linear",
        "columns": [lab for lab, _, _ in spec.pairs] + [_spill(lab) for lab, _, _ in spec.pairs],
        "folds": folds,
        "lmg": lmg_block,
        "delta_llh": _mean_se([e["delta_llh"] for e in folds]),
        "pooled_raw": _pooled_raw(all_rows, spec),
    }


def _pooled_raw(rows: _FoldRows, spec: ModelSpec) -> dict:
    """``spec``'s fit on ``rows`` in original units, residualized where the
    encoding calls for it.  It is made, and gated, on the centred columns,
    so no source's offset from zero moves the gate; the raw intercept,
    ``a @ beta`` with a = (1, -means), and its standard error are read back."""
    r, t = rows.triangle, _model_map(rows, spec)[1]
    a = np.r_[0.0, -(r[0] @ t[:, 1:]) / r[0, 0]]  # the means are R[0] t / R[0, 0]
    fit = _fit(rows, spec, np.vstack([t[0] + a, t[1:]]))
    a[0], k = 1.0, len(fit.labels)
    coeffs, std_errors = fit.coefficients.copy(), fit.std_errors.copy()
    coeffs[0] = a @ fit.coefficients
    # Var(a @ beta) = s^2 |R^-T a|^2 for the fit's design block R
    spread = np.linalg.norm(np.linalg.solve(fit.triangle.r[:k, :k].T, a))
    std_errors[0] = math.sqrt(fit.sse / (rows.n_rows - k)) * float(spread)
    return {
        "coeffs": dict(zip(fit.labels, map(float, coeffs))),
        "std_errors": dict(zip(fit.labels, map(float, std_errors))),
        "r2": fit.r2,
    }


def _smooth_entry(spec: ModelSpec, records: Sequence[_ModelFold]) -> dict:
    """A model's smooth counterpart: its fold entries and held-out score."""
    folds = [record.smooth_entry for record in records]
    return {
        "model": f"{spec.name}_smooth",
        "kind": "smooth",
        "folds": folds,
        "delta_llh": _mean_se([e["delta_llh"] for e in folds]),
    }


def _mean_se(values: Sequence[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DegenerateError("need at least two folds for a standard error")
    return {"mean": float(arr.mean()), "se": float(arr.std(ddof=1) / math.sqrt(arr.size))}
