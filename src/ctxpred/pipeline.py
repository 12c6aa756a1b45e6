"""Cross-validated analysis: predictor table to report structures.

This module owns the experiment recipe.  Given a predictor source (an
internal LM or an external per-token file) and raw reading-time
observations it:

1. aggregates participants and scores every token of the text,
2. drops the tokens nobody read and the document-initial rows (no
   spillover values there), counting each,
3. assigns folds, then per fold standardizes every column with
   training-rows statistics only,
4. fits the competing linear models (raw surprisal, PMI rewrite, and
   the orthogonalized variant), decomposes training R-squared into
   per-group shares, and scores held-out rows against the
   training-mean baseline,
5. optionally fits smooth (spline) counterparts of each model,
6. runs the reparameterization-identity check on the raw columns and
   full-sample raw-scale fits for coefficient read-outs in original
   units.

Nothing here touches the filesystem; the CLI layer serializes the
returned structures.  Test rows never contribute to means, variances,
projection coefficients, or fitted parameters, so the folds are
independent: they run in forked worker processes, one per usable CPU,
and their records are merged in fold order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
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
from .corpus import (
    FoldAssignment,
    TokenTable,
    aggregate_participants,
    kfold,
    standardize_stats,
)
from .errors import ConfigError, DegenerateError, RankDeficiencyError
from .hilbert import fit_projection, sample_orthogonalize
from .predictors import PREDICTOR_NAMES, build_predictor_table, table_columns
from .regression import (
    DesignMatrix,
    FitResult,
    delta_loglik,
    equivalence_report,
    lmg,
    ols_fit,
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


def _needed_sources(specs: Sequence[ModelSpec]) -> list[str]:
    names: list[str] = []
    for spec in specs:
        for _, source, anchor in _design_columns(spec):
            for name in filter(None, (source, anchor)):
                if name not in names:
                    names.append(name)
    return names


def _assemble(
    spec: ModelSpec,
    std_train: Mapping[str, np.ndarray],
    std_test: Mapping[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, float]]:
    """Build one model's train/test columns from standardized sources.

    Residualization coefficients come from training rows only and are
    applied unchanged to the held-out rows.  Returns the train columns,
    test columns, and the training-fold correlation of each
    residualized column with its anchor (a leak/exactness diagnostic).
    """
    cols_tr: dict[str, np.ndarray] = {}
    cols_te: dict[str, np.ndarray] = {}
    anchor_corr: dict[str, float] = {}
    for lab, src, anc in _design_columns(spec):
        if anc is None:
            cols_tr[lab] = std_train[src]
            cols_te[lab] = std_test[src]
            continue
        coeff = fit_projection(std_train[src], std_train[anc], anc)
        cols_tr[lab] = coeff.apply(std_train[src], std_train[anc])
        cols_te[lab] = coeff.apply(std_test[src], std_test[anc])
        denom = math.sqrt(
            float(cols_tr[lab] @ cols_tr[lab]) * float(std_train[anc] @ std_train[anc])
        )
        num = float(cols_tr[lab] @ std_train[anc])
        anchor_corr[lab] = 0.0 if denom == 0.0 else num / denom
    return cols_tr, cols_te, anchor_corr


def _groups(spec: ModelSpec, grouping: str) -> dict[str, list[str]]:
    if grouping == "paired":
        return {label: [label, _spill(label)] for label, _, _ in spec.pairs}
    return {label: [label] for label, _, _ in _design_columns(spec)}


def _fit_to_raw_scale(
    fit: FitResult,
    spec: ModelSpec,
    stats: Mapping[str, tuple[float, float]],
) -> dict[str, float] | None:
    """Translate a standardized-column fit back to original units.

    Only meaningful when every column is a plain standardized copy of a
    raw source column (no residualization), i.e. for the surprisal and
    PMI models.
    """
    if any(anchor is not None for _, _, anchor in spec.pairs):
        return None
    coeffs: dict[str, float] = {}
    intercept = fit.coef("intercept")
    for lab, src, _ in _design_columns(spec):
        mean, sd = stats[src]
        beta = fit.coef(lab)
        coeffs[lab] = beta / sd
        intercept -= beta * mean / sd
    coeffs["intercept"] = intercept
    return coeffs


def _usable_rows(aggregated: TokenTable, source) -> tuple[TokenTable, int, int]:
    """The scored rows that enter the fits, and the counts of those
    dropped as unread and as document-initial (no spillover values)."""
    records = build_predictor_table(aggregated, source)
    unread = np.isnan(records["rt_ms"])
    initial = np.isnan(records["prev_surprisal"]) & ~unread
    rows = records.take(~(unread | initial))
    return rows, int(np.count_nonzero(unread)), int(np.count_nonzero(initial))


@dataclass
class AnalyzeResult:
    report: dict
    lmg_rows: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class _FoldContext:
    """What every fold reads: the usable rows, their raw columns and
    response, the fold assignment, the models and their LMG groups, and
    the smoothing options."""

    rows: TokenTable
    raw: Mapping[str, np.ndarray]
    y: np.ndarray
    assignment: FoldAssignment
    specs: tuple[ModelSpec, ...]
    groups: tuple[dict[str, list[str]], ...]
    smooth: bool
    smooth_k: int
    lambda_grid: Sequence[float]


class _ModelFold(NamedTuple):
    """One model's records from one fold: its fold entry, its ``lmg.csv``
    rows (one per LMG group), the anchor correlations of its residualized
    columns, and its smooth fold entry (None without ``smooth``)."""

    entry: dict
    lmg_rows: list[dict]
    anchor_corr: dict[str, float]
    smooth_entry: dict | None


def _run_fold(context: _FoldContext, f: int) -> list[_ModelFold]:
    """Fit every model on fold ``f``'s training rows and score its test
    rows; each column is standardized with training statistics only."""
    tr = context.assignment.train_idx(f)
    te = context.assignment.test_idx(f)
    raw, y = context.raw, context.y
    stats = {n: standardize_stats(raw[n][tr], n) for n in _needed_sources(context.specs)}
    std_tr = {n: (raw[n][tr] - m) / s for n, (m, s) in stats.items()}
    std_te = {n: (raw[n][te] - m) / s for n, (m, s) in stats.items()}
    y_tr, y_te = y[tr], y[te]
    # the fold's smooth terms, shared by the models: a label names one
    # column within a fold
    terms: dict[str, SmoothTerm] = {}
    out = []
    for spec, groups in zip(context.specs, context.groups):
        cols_tr, cols_te, anchor_corr = _assemble(spec, std_tr, std_te)
        try:
            fit = ols_fit(DesignMatrix.build(cols_tr), y_tr)
        except RankDeficiencyError as exc:
            # a token type that the training rows lack can make the
            # type-level columns collinear
            tokens = context.rows["token"]
            lacking = np.setdiff1d(tokens, tokens[tr])
            names = ", ".join(sorted(repr(context.rows.types[c]) for c in lacking))
            note = f"; the fold's training rows hold no {names}" if names else ""
            raise RankDeficiencyError(
                f"fold {f}, model {spec.name}: {exc}{note}", columns=exc.columns
            ) from exc
        pred_te = fit.predict(DesignMatrix.build(cols_te))
        delta = delta_loglik(y_tr, fit.residual_variance, y_te, pred_te)
        report_lmg = lmg(fit.triangle, groups)
        entry = {
            "fold": f,
            "r2": fit.r2,
            "coeffs": fit.coef_dict(),
            "coeffs_raw": _fit_to_raw_scale(fit, spec, stats),
            "llh": delta.model_loglik / delta.n_test,
            "delta_llh": delta.per_token,
        }
        lmg_rows = [
            {"model": spec.name, "group": gname, "fold": f, "share": float(share),
             "total_r2": report_lmg.total_r2}
            for gname, share in zip(report_lmg.groups, report_lmg.shares)
        ]
        smooth_entry = None
        if context.smooth:
            for label, x in cols_tr.items():
                if label not in terms:
                    terms[label] = SmoothTerm.fit(label, x, context.smooth_k)
            sfit = fit_smooth(
                {label: terms[label] for label in cols_tr}, y_tr,
                lambda_grid=context.lambda_grid,
            )
            pred = sfit.predict(cols_te)
            sdelta = delta_loglik(y_tr, sfit.residual_variance, y_te, pred)
            smooth_entry = {
                "fold": f,
                "r2": sfit.r2,
                "llh": sdelta.model_loglik / sdelta.n_test,
                "delta_llh": sdelta.per_token,
                "terms": sfit.term_summary(),
            }
        out.append(_ModelFold(entry, lmg_rows, anchor_corr, smooth_entry))
    return out


def _fold_workers(folds: int) -> int:
    """Worker processes for the fold loop: one per CPU this process may
    run on, at most one per fold; 1 (in-process) without fork or CPU
    affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(folds, len(os.sched_getaffinity(0)))


# the fold context of a worker process, set by its pool's initializer
_worker_context: _FoldContext | None = None
# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _init_worker(context: _FoldContext) -> None:
    """Adopt the fold context, and have glibc's malloc keep the memory a
    fold frees for the next fold instead of unmapping it: page faults in
    processes forked from one parent slow each other down, and on a
    2-CPU Xeon the ten folds of a 50,000-row linear analysis took 0.33 s
    on two workers without this, 0.27 s in-process and 0.22 s with it."""
    global _worker_context
    _worker_context = context
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _run_worker_fold(f: int) -> list[_ModelFold]:
    return _run_fold(_worker_context, f)


def _run_folds(context: _FoldContext, folds: int) -> list[list[_ModelFold]]:
    """``_run_fold`` of every fold, in fold order.

    With several workers the folds run in forked processes, which
    inherit the context rather than receive it pickled; only the fold
    records travel back.  A failure re-raises the exception of the
    lowest failing fold once the pool has shut down.
    """
    workers = _fold_workers(folds)
    if workers == 1:
        return [_run_fold(context, f) for f in range(folds)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(context,),
    ) as pool:
        # map yields in fold order; leaving it early cancels the folds
        # not yet started, and leaving the block joins the workers
        return list(pool.map(_run_worker_fold, range(folds)))


def analyze_observations(
    source, observations: TokenTable, seed: int, **options
) -> AnalyzeResult:
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
) -> AnalyzeResult:
    predictors = check_predictors(predictors)
    check_swap_ortho(swap_ortho)
    check_choice("lmg grouping", LMG_GROUPINGS, lmg_grouping)
    check_choice("fold unit", FOLD_UNITS, fold_by)
    specs = [model_spec(kind, include_length, swap_ortho) for kind in predictors]
    groups = tuple(_groups(spec, lmg_grouping) for spec in specs)

    rows, n_unread, n_initial = _usable_rows(aggregated, source)
    if len(rows) < folds:
        raise ConfigError(
            f"only {len(rows)} usable rows after dropping document-initial "
            f"tokens; need at least {folds}"
        )

    # every column, for the identity check whatever the model selection
    raw = table_columns(rows, PREDICTOR_NAMES)
    y = rows["rt_ms"]

    doc_ids = rows.decode("doc") if fold_by == "document" else None
    assignment = kfold(len(rows), folds, seed, doc_ids=doc_ids)

    context = _FoldContext(
        rows=rows, raw=raw, y=y, assignment=assignment, specs=tuple(specs),
        groups=groups, smooth=smooth, smooth_k=smooth_k, lambda_grid=lambda_grid,
    )
    fold_records = _run_folds(context, folds)
    # each model's records, in fold order
    model_records = list(zip(*fold_records))
    models = [
        _linear_entry(spec, model_groups, records, raw, y)
        for spec, model_groups, records in zip(specs, groups, model_records)
    ]
    if smooth:
        models += [_smooth_entry(spec, records) for spec, records in zip(specs, model_records)]
    ortho_diag = {
        f"{spec.name}:{lab}": max(abs(record.anchor_corr[lab]) for record in records)
        for spec, records in zip(specs, model_records)
        for lab in records[0].anchor_corr
    }

    # reparameterization identities on the raw, unstandardized columns
    # (standardization would rescale away the exact coefficient algebra)
    equivalence = equivalence_report(
        y, raw["surprisal"], raw["frequency"], pmi=raw["pmi"]
    )

    report = {
        "n_rows": len(rows),
        "n_dropped_document_initial": n_initial,
        "n_dropped_unread": n_unread,
        "folds": folds,
        "fold_mode": assignment.mode,
        "seed": seed,
        "models": models,
        "equivalence": {
            "deltas": {k: float(v) for k, v in equivalence.deltas.items()}
        },
        "ortho_train_correlations": {
            k: float(v) for k, v in sorted(ortho_diag.items())
        },
    }
    lmg_rows = [row for records in fold_records for record in records for row in record.lmg_rows]
    return AnalyzeResult(report=report, lmg_rows=lmg_rows)


def _linear_entry(
    spec: ModelSpec, groups: Mapping[str, list[str]], records: Sequence[_ModelFold],
    raw: Mapping[str, np.ndarray], y: np.ndarray,
) -> dict:
    """A linear model's report entry: its fold entries, their mean LMG
    shares and held-out score, and a full-sample fit in original units
    on the unstandardized columns (residualized where the encoding calls
    for it)."""
    folds = [record.entry for record in records]
    fold_shares = [[row["share"] for row in record.lmg_rows] for record in records]
    lmg_block = {
        "groups": list(groups),
        "shares": [float(v) for v in np.mean(fold_shares, axis=0)],
        "total_r2": float(np.mean([e["r2"] for e in folds])),
        "fold_shares": fold_shares,
    }
    delta_llh = _mean_se([e["delta_llh"] for e in folds])
    pooled = ols_fit(DesignMatrix.build({
        lab: raw[src] if anc is None else sample_orthogonalize(raw[src], raw[anc])
        for lab, src, anc in _design_columns(spec)
    }), y)
    return {
        "model": spec.name,
        "kind": "linear",
        "columns": [lab for lab, _, _ in spec.pairs] + [_spill(lab) for lab, _, _ in spec.pairs],
        "folds": folds,
        "lmg": lmg_block,
        "delta_llh": delta_llh,
        "pooled_raw": {
            "coeffs": pooled.coef_dict(),
            "std_errors": dict(zip(pooled.labels, map(float, pooled.std_errors))),
            "r2": pooled.r2,
        },
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
    return {
        "mean": float(arr.mean()),
        "se": float(arr.std(ddof=1) / math.sqrt(arr.size)),
    }
