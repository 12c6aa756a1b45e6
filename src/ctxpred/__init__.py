"""Contextual predictors from exactly enumerable language models.

The package derives surprisal, frequency, and pointwise mutual
information (all in nats) either from finite-order autoregressive
models that can be enumerated exactly or from external per-token
estimates; orthogonalizes predictors in closed form under the model
measure or by sample residualization; and quantifies each predictor's
contribution to reading times with cross-validated linear and
penalized-spline regressions, variance decomposition, and held-out
log-likelihood gains.

``__all__`` is the public API.  Each name, and each submodule such as
``ctxpred.pipeline``, is imported on first use, so importing the
package loads no numpy and a command loads only the modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS: dict[str, tuple[str, ...]] = {
    "choices": ("check_seed",),
    "corpus": (
        "FoldAssignment", "TokenTable", "aggregate_participants", "generate_synthetic",
        "kfold", "parse_corpus", "standardize_stats", "write_corpus_tsv",
    ),
    "errors": (
        "AlignmentError", "BasisError", "ConditioningError", "ConfigError",
        "ConvergenceError", "CoverageError", "CtxpredError", "DegenerateError",
        "DivergenceError", "FormatError", "IdentityError", "RankDeficiencyError",
        "SizeError", "SymbolError",
    ),
    "hilbert": (
        "MeasureTable", "ProjectionCoefficient", "RandomVariableTable", "fit_projection",
        "frequency_variable", "inner_product", "mean", "pmi_variable", "project_complement",
        "sample_orthogonalize", "surprisal_variable",
    ),
    "lm": (
        "AutoregressiveLM", "EnumerationBudget", "UnigramLM", "UnitAlphabet",
        "conditional", "expected_length", "forward_kl_unigram", "load_lm_tsv",
        "prefix_normalizer", "sample_string", "unigram_minimizer", "write_lm_tsv",
    ),
    "pipeline": ("analyze_observations", "analyze_tokens", "model_spec"),
    "predictors": (
        "build_predictor_table", "parse_external_tsv", "table_columns", "write_external_tsv",
    ),
    "regression": (
        "DeltaLogLik", "DesignMatrix", "FitResult", "IdentityReport", "LmgReport",
        "Triangle", "delta_loglik", "equivalence_report", "lmg", "ols_fit",
        "residualization_triplet",
    ),
    "seeding": ("named_rng",),
    "smooth": ("SmoothFit", "SmoothTerm", "SplineBasis", "fit_smooth"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per module
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
