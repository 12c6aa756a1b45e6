from __future__ import annotations

import numpy as np
import pytest

from ctxpred.corpus import standardize_stats
from ctxpred.lm import AutoregressiveLM, UnitAlphabet
from ctxpred.regression import delta_loglik
from ctxpred.smooth import DEFAULT_KNOTS, SmoothTerm, fit_smooth
from oracles import table_from_lists

FIXTURE_SEED = 20240915

# Lines registered by the acceptance tests; replayed after the test
# session so they are visible even under output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def observation_table(rows):
    """Readings from (participant, doc_id, sentence_id, token_idx, token,
    rt_ms, skipped) tuples, one per corpus row."""
    participant, doc_id, sentence_id, token_idx, token, rt_ms, skipped = zip(*rows)
    return table_from_lists(
        participant=participant, doc_id=doc_id, token=token,
        sentence_id=np.array(sentence_id, dtype=np.int64),
        token_idx=np.array(token_idx, dtype=np.int64),
        rt_ms=np.array(rt_ms, dtype=float), skipped=np.array(skipped, dtype=bool),
    )


def standardize(values, label="column"):
    """Center to mean zero and scale to unit sample (n-1) deviation."""
    mean, sd = standardize_stats(values, label)
    return (np.asarray(values, dtype=float) - mean) / sd


def smooth_fit(columns, y, k=DEFAULT_KNOTS, **options):
    """``fit_smooth`` with a term of its own fitted to each column."""
    terms = {name: SmoothTerm.fit(name, x, k) for name, x in columns.items()}
    return fit_smooth(terms, y, **options)


def heldout_delta(y_train, residual_variance, y_test, predicted):
    """``delta_loglik`` of the predictions ``predicted`` of ``y_test``,
    against the mean and variance of ``y_train``."""
    resid = y_test - predicted
    base = y_test - y_train.mean()
    return delta_loglik(
        y_test.size, float(resid @ resid), residual_variance, float(base @ base),
        float(np.var(y_train)),
    )


def make_m0() -> AutoregressiveLM:
    """Memoryless two-unit model: a 0.3, b 0.2, end 0.5."""
    return AutoregressiveLM(
        alphabet=UnitAlphabet(units=("a", "b")),
        cond={(): {"a": 0.3, "b": 0.2, "$": 0.5}},
    )


def make_m1() -> AutoregressiveLM:
    """Order-1 single-unit model: start a 0.8 / end 0.2, after a: a 0.25 / end 0.75."""
    return AutoregressiveLM(
        alphabet=UnitAlphabet(units=("a",)),
        cond={
            (): {"a": 0.8, "$": 0.2},
            ("a",): {"a": 0.25, "$": 0.75},
        },
    )


def make_m2_partial() -> AutoregressiveLM:
    """Order-2 model whose short states are partly undefined: ('b',) is
    never defined, yet ('b', 'a') is reached through ('a', 'b')."""
    return AutoregressiveLM(
        alphabet=UnitAlphabet(units=("a", "b")),
        cond={
            (): {"a": 0.5, "$": 0.5},
            ("a",): {"b": 0.5, "$": 0.5},
            ("a", "b"): {"a": 0.5, "$": 0.5},
            ("b", "a"): {"b": 0.5, "$": 0.5},
        },
    )


def random_lm(
    rng: np.random.Generator,
    max_units: int = 3,
    max_order: int = 1,
    eos_floor: float = 0.5,
) -> AutoregressiveLM:
    """Random fully supported model with enough stopping mass to stay cheap."""
    n_units = int(rng.integers(1, max_units + 1))
    units = tuple(f"u{i}" for i in range(n_units))
    order = int(rng.integers(0, max_order + 1))
    states = [()]
    if order >= 1:
        states += [(u,) for u in units]
    if order >= 2:
        states += [(a, b) for a in units for b in units]
    cond = {}
    for s in states:
        eos_p = float(rng.uniform(eos_floor, 0.95))
        weights = rng.dirichlet(np.ones(n_units))
        row = {"$": eos_p}
        for u, w in zip(units, weights):
            row[u] = float((1.0 - eos_p) * w)
        # strip structural zeros that dirichlet occasionally produces
        row = {k: v for k, v in row.items() if v > 1e-12}
        total = sum(row.values())
        row = {k: v / total for k, v in row.items()}
        cond[s] = row
    return AutoregressiveLM(alphabet=UnitAlphabet(units=units), cond=cond)


@pytest.fixture
def m0():
    return make_m0()


@pytest.fixture
def m1():
    return make_m1()
