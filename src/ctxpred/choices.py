"""Option values and checks that the library and the command line share.

Each is defined here once.  The library checks its arguments with these
functions, and the command line's option table quotes these values in
its defaults and help texts and converts flags with these checks.  The
module needs no numpy, so the command line can parse and check every
option before it imports the modules that run the command.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import ConfigError

# the competing linear models, in report order
MODEL_KINDS = ("surprisal", "pmi", "ortho")
# the predictor the ortho model may residualize instead of surprisal
SWAP_TARGET = "frequency"
# variance shares per predictor with its spillover twin, or per column;
# the first is the default
LMG_GROUPINGS = ("paired", "separate")
# the cross-validation fold unit; the first is the default
FOLD_UNITS = ("token", "document")
DEFAULT_KNOTS = 6
# the enumeration budget of ``oracle``: its horizon and tail tolerance
DEFAULT_MAX_LEN, DEFAULT_TAIL_TOL = 256, 1e-6
# np.logspace(-4.0, 4.0, 17), written out: 10.0 ** 2.5 is one ulp off
# its 14th value
LAMBDA_GRID: tuple[float, ...] = (
    0.0001, 0.00031622776601683794, 0.001, 0.0031622776601683794, 0.01,
    0.03162277660168379, 0.1, 0.31622776601683794, 1.0, 3.1622776601683795,
    10.0, 31.622776601683793, 100.0, 316.2277660168379, 1000.0,
    3162.2776601683795, 10000.0,
)

_MASK64 = (1 << 64) - 1


def check_choice(what: str, allowed: Sequence[str], value: str) -> str:
    """``value`` if it is one of ``allowed``, else ``ConfigError`` naming ``what``."""
    if value not in allowed:
        raise ConfigError(f"unknown {what} {value!r}; choose from {', '.join(allowed)}")
    return value


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed <= _MASK64):
        raise ConfigError(f"seed must fit in 64 bits, got {seed}")
    return seed


def check_predictors(predictors: Iterable[str]) -> tuple[str, ...]:
    """The model selection: known model kinds, at least one, no repeats."""
    selection = tuple(predictors)
    if not selection:
        raise ConfigError("predictor selection is empty")
    for kind in selection:
        check_choice("predictor set", MODEL_KINDS, kind)
    if len(set(selection)) != len(selection):
        raise ConfigError(f"duplicate entries in predictor selection {selection}")
    return selection


def check_swap_ortho(target: str | None) -> str | None:
    """The swap target: None (the ortho model residualizes surprisal) or
    ``SWAP_TARGET`` (it residualizes frequency instead)."""
    if target not in (None, SWAP_TARGET):
        raise ConfigError(
            f"unsupported swap-ortho target {target!r}; the only target is {SWAP_TARGET!r}"
        )
    return target


def check_lambda_grid(values: Iterable[float]) -> tuple[float, ...]:
    """The smoothing grid as floats; it must be non-empty, finite,
    nonnegative and ascending, else ``ConfigError``."""
    grid = tuple(float(v) for v in values)
    if not grid:
        raise ConfigError("lambda grid must be non-empty")
    if not all(math.isfinite(v) and v >= 0.0 for v in grid):
        raise ConfigError(f"lambda grid must be finite and nonnegative, got {list(grid)}")
    if list(grid) != sorted(grid):
        raise ConfigError(f"lambda grid must be sorted ascending, got {list(grid)}")
    return grid


# the enumeration budget of ``oracle``, and the reading-time noise of ``gen``
def check_max_len(value: int) -> int:
    if value < 1:
        raise ConfigError(f"max_len must be >= 1, got {value}")
    return value


def check_tail_tol(value: float) -> float:
    if not 0.0 < value <= 1e-3:
        raise ConfigError(f"tail_tol must lie in (0, 1e-3], got {value}")
    return value


def check_noise_sd(value: float) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"noise_sd must be finite and >= 0, got {value}")
    return value
