"""Contextual predictors from exactly enumerable language models.

The package derives surprisal, frequency, and pointwise mutual
information (all in nats) either from finite-order autoregressive
models that can be enumerated exactly or from external per-token
estimates; orthogonalizes predictors in closed form under the model
measure or by sample residualization; and quantifies each predictor's
contribution to reading times with cross-validated linear and
penalized-spline regressions, variance decomposition, and held-out
log-likelihood gains.
"""

from .corpus import (
    FoldAssignment,
    TokenTable,
    aggregate_participants,
    generate_synthetic,
    kfold,
    observation_table,
    parse_corpus,
    standardize,
    standardize_stats,
    write_corpus_tsv,
)
from .errors import (
    AlignmentError,
    BasisError,
    ConditioningError,
    ConfigError,
    ConvergenceError,
    CoverageError,
    CtxpredError,
    DegenerateError,
    DivergenceError,
    FormatError,
    IdentityError,
    RankDeficiencyError,
    SizeError,
    SymbolError,
)
from .hilbert import (
    MeasureTable,
    ProjectionCoefficient,
    RandomVariableTable,
    fit_projection,
    inner_product,
    mean,
    project_complement,
    sample_orthogonalize,
)
from .lm import (
    AutoregressiveLM,
    EnumerationBudget,
    UnigramLM,
    UnitAlphabet,
    conditional,
    expected_length,
    forward_kl_unigram,
    load_lm_tsv,
    prefix_normalizer,
    sample_string,
    unigram_minimizer,
    write_lm_tsv,
)
from .pipeline import AnalyzeResult, analyze_observations, analyze_tokens, model_spec
from .predictors import (
    build_predictor_table,
    frequency_variable,
    parse_external_tsv,
    pmi_variable,
    surprisal_variable,
    table_columns,
    write_external_tsv,
)
from .regression import (
    DeltaLogLik,
    DesignMatrix,
    EquivalenceReport,
    FitResult,
    LmgReport,
    Triangle,
    delta_loglik,
    equivalence_report,
    fit_columns,
    gaussian_loglik,
    gaussian_loglik_rows,
    lmg,
    ols_fit,
    residualization_triplet,
)
from .seeding import check_seed, named_rng
from .smooth import (
    SmoothFit,
    SmoothTerm,
    SplineBasis,
    fit_smooth,
)

__version__ = "0.1.0"
