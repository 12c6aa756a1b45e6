"""Finite-order autoregressive unit language models over a small alphabet.

A model of order k assigns every context a conditional distribution over
the unit alphabet plus an end-of-string symbol, where the conditional
depends on the context only through its last k units.  All models here
must terminate almost surely (spectral radius of the unit-to-unit
transition operator strictly below one), which makes prefix masses,
expected lengths, the best unigram approximation and its forward KL
exactly computable by small linear solves over the finite state space.

A model indexes its chain once, at construction: the sorted states, the
transition table, the next-symbol table ``[emit | eos]``, and the
successor of every (state, unit) cell.  Sampling, corpus scoring and the
enumeration that checks the context mass read those tables, and the
expected visit counts behind the normalizer, the expected symbol counts,
the unigram minimizer, its KL and the exact context measure are solved
once per model, on first use.

Conventions:
  * contexts and strings are tuples of unit strings; the empty tuple is
    the start context,
  * the state of a context is its last ``order`` units,
  * conditional tables store strictly positive probabilities; a missing
    entry is a structural zero,
  * all logarithms throughout the package are natural (values in nats).

Model definition files are TSV with columns ``state``, ``unit``,
``prob``.  The state column holds units joined by single spaces, with
``^`` for the start state; the unit column holds a unit or ``$`` for
end-of-string.  Rows for one state must sum to 1 within 1e-9 and are
renormalized exactly on load.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .choices import DEFAULT_MAX_LEN, DEFAULT_TAIL_TOL, check_max_len, check_tail_tol
from .errors import (
    ConditioningError,
    ConvergenceError,
    DegenerateError,
    DivergenceError,
    FormatError,
    SymbolError,
)
from .files import read_text, write_atomic

START_STATE_MARK = "^"
EOS_MARK = "$"

# Sum tolerance for rows of a definition file; in-memory tables are
# renormalized so conditionals sum to 1 within 1e-12 after loading.
FILE_ROW_SUM_TOL = 1e-9
COND_SUM_TOL = 1e-12

# Linear solves refuse to report results past this conditioning.
SOLVE_CONDITION_LIMIT = 1e12

# Almost-sure termination margin for the unit transition operator.
SPECTRAL_MARGIN = 1e-9


@dataclass(frozen=True)
class EnumerationBudget:
    """Horizon and certified tail bound for the enumeration of contexts."""

    max_len: int = DEFAULT_MAX_LEN
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        check_max_len(self.max_len)
        check_tail_tol(self.tail_tol)


@dataclass(frozen=True)
class UnitAlphabet:
    """Ordered unit inventory plus the reserved end-of-string symbol."""

    units: tuple[str, ...]
    eos: str = EOS_MARK

    def __post_init__(self):
        seen = set()
        for u in self.units:
            if not u or any(ch.isspace() for ch in u):
                raise FormatError(f"unit {u!r} is empty or contains whitespace")
            if u in (START_STATE_MARK, self.eos):
                raise FormatError(f"unit {u!r} collides with a reserved marker")
            if u in seen:
                raise FormatError(f"duplicate unit {u!r}")
            seen.add(u)

    @property
    def symbols(self) -> tuple[str, ...]:
        """Units followed by the end-of-string symbol."""
        return self.units + (self.eos,)


@dataclass(frozen=True)
class UnigramLM:
    """Context-free distribution over units and end-of-string."""

    probs: dict[str, float]
    normalizer: float = 1.0

    def prob(self, symbol: str) -> float:
        return self.probs.get(symbol, 0.0)


State = tuple[str, ...]


@dataclass(frozen=True)
class AutoregressiveLM:
    """Order-k conditional table with validated termination behaviour.

    ``cond`` maps each context state to a dict of symbol probabilities
    (units and/or the eos symbol).  Stored probabilities are strictly
    positive; per-state sums must equal one within ``COND_SUM_TOL``.

    Construction indexes the chain once.  ``states`` are sorted by
    length, then by units, so the start state is row 0, and ``index``
    maps a state to its row.  ``trans[i, j]`` is the one-unit transition
    probability from state i to state j, and ``next_probs[i, c]`` the
    probability of symbol c in state i (columns ordered like
    ``alphabet.symbols``); its views ``emit`` (the unit columns) and
    ``eos`` (the last column) split it.  ``succ[i, a]`` is the row of the
    state after unit a, or -1 where the model defines no such state.
    """

    alphabet: UnitAlphabet
    cond: dict[State, dict[str, float]]
    order: int = field(init=False)
    states: tuple[State, ...] = field(init=False, repr=False, compare=False)
    index: dict[State, int] = field(init=False, repr=False, compare=False)
    trans: np.ndarray = field(init=False, repr=False, compare=False)
    next_probs: np.ndarray = field(init=False, repr=False, compare=False)
    emit: np.ndarray = field(init=False, repr=False, compare=False)
    eos: np.ndarray = field(init=False, repr=False, compare=False)
    succ: np.ndarray = field(init=False, repr=False, compare=False)
    # per state row, for ``walk``: its symbols' codes (unit columns, -1
    # for eos), their cdf, and the row each leads to (eos: the start state)
    sampler: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if () not in self.cond:
            raise FormatError("model must define the start state")
        object.__setattr__(self, "order", max(len(s) for s in self.cond))
        states = tuple(sorted(self.cond, key=lambda s: (len(s), s)))
        index = {s: i for i, s in enumerate(states)}
        units = self.alphabet.units
        unit_col = {u: a for a, u in enumerate(units)}
        trans = np.zeros((len(states), len(states)))
        next_probs = np.zeros((len(states), len(units) + 1))
        for state, row in self.cond.items():
            for u in state:
                if u not in unit_col:
                    raise FormatError(f"state {state!r} uses unknown unit {u!r}")
            total = 0.0
            for sym, p in row.items():
                if sym != self.alphabet.eos and sym not in unit_col:
                    raise SymbolError(f"symbol {sym!r} is not in the alphabet")
                if not (0.0 < p <= 1.0) or not math.isfinite(p):
                    raise FormatError(
                        f"probability for {sym!r} in state {state!r} must be in (0, 1], got {p}"
                    )
                total += p
            if abs(total - 1.0) > COND_SUM_TOL:
                raise FormatError(
                    f"conditionals for state {state!r} sum to {total!r}, not 1"
                )
            i = index[state]
            for sym, p in row.items():
                next_probs[i, unit_col.get(sym, -1)] = p  # eos: the last column
                if sym == self.alphabet.eos:
                    continue
                nxt = self.next_state(state, sym)
                if nxt not in index:
                    raise FormatError(
                        f"transition {state!r} --{sym!r}--> {nxt!r} has no defined state"
                    )
                trans[i, index[nxt]] += p
        succ = np.array(
            [[index.get(self.next_state(s, u), -1) for u in units] for s in states],
            dtype=np.int64,
        )
        chain = dict(states=states, index=index, trans=trans, next_probs=next_probs,
                     emit=next_probs[:, :-1], eos=next_probs[:, -1], succ=succ)
        for name, value in chain.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        rho = float(np.max(np.abs(np.linalg.eigvals(trans))))
        if rho >= 1.0 - SPECTRAL_MARGIN:
            raise DivergenceError(
                f"unit transition operator has spectral radius {rho:.12g}; "
                "the model does not terminate almost surely"
            )
        sampler = []
        for i, state in enumerate(states):
            row = self.cond[state]
            probs = np.array(list(row.values()))
            # the cdf exactly as Generator.choice(p=...) builds it
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            codes = [unit_col.get(s, -1) for s in row]
            nxt = [index[()] if a < 0 else int(succ[i, a]) for a in codes]
            sampler.append((codes, cdf.tolist(), nxt))
        object.__setattr__(self, "sampler", tuple(sampler))

    # -- state space ----------------------------------------------------

    def next_state(self, state: State, unit: str) -> State:
        if self.order == 0:
            return ()
        return (state + (unit,))[-self.order :]

    def state_of(self, context: Iterable[str]) -> State:
        ctx = tuple(context)
        unknown = [u for u in ctx if u not in self.alphabet.units]
        if unknown:
            raise SymbolError(f"context units not in the alphabet: {unknown!r}")
        return ctx[-self.order :] if self.order else ()

    @cached_property
    def visits(self) -> np.ndarray:
        """Expected number of times each state is occupied before termination.

        Solves (I - T)' v = e_start for the absorbing chain on context
        states, once per model, on first use.  Every occupation emits
        exactly one symbol, so the visit counts double as expected
        symbol emissions per state.
        """
        n = len(self.states)
        system = np.eye(n) - self.trans.T
        cond_number = np.linalg.cond(system)
        if not np.isfinite(cond_number) or cond_number > SOLVE_CONDITION_LIMIT:
            raise ConditioningError(
                f"visit-count system condition number {cond_number:.3g} exceeds "
                f"{SOLVE_CONDITION_LIMIT:.0e}"
            )
        start = np.zeros(n)
        start[self.index[()]] = 1.0
        visits = np.linalg.solve(system, start)
        visits.flags.writeable = False
        return visits


def expected_length(lm: AutoregressiveLM) -> float:
    """Expected number of units in a sampled string.

    Total symbol emissions count every unit plus the single terminating
    symbol, so the expectation is the summed visit mass minus one.
    """
    return float(np.sum(lm.visits) - 1.0)


def prefix_normalizer(lm: AutoregressiveLM) -> float:
    """Total prefix mass over all contexts: 1 + expected string length."""
    return 1.0 + expected_length(lm)


def conditional(lm: AutoregressiveLM, context: Iterable[str], symbol: str) -> float:
    """Probability of emitting ``symbol`` (a unit or eos) after ``context``."""
    if symbol not in lm.alphabet.symbols:
        raise SymbolError(f"symbol {symbol!r} is not in the alphabet")
    state = lm.state_of(context)
    if state not in lm.cond:
        raise DegenerateError(
            f"context state {state!r} is unreachable under this model"
        )
    return lm.cond[state].get(symbol, 0.0)


def unigram_minimizer(lm: AutoregressiveLM) -> UnigramLM:
    """Best context-free approximation of the model in forward KL.

    The optimum reweights expected symbol counts per generated string:
    q(symbol) = E[count of symbol] / Z, where the normalizer Z equals
    the total prefix mass (1 + expected length) because every string of
    length n contributes n unit emissions plus one terminating symbol.
    """
    counts = expected_counts(lm).tolist()
    z = sum(counts)
    probs = {sym: c / z for sym, c in zip(lm.alphabet.symbols, counts) if c > 0.0}
    return UnigramLM(probs=probs, normalizer=z)


def expected_counts(lm: AutoregressiveLM) -> np.ndarray:
    """Expected occurrences per string of each of ``lm.alphabet.symbols``
    (units, then one eos per string): the visits times the next-symbol table."""
    return lm.visits @ lm.next_probs


def unigram_log_probs(lm: AutoregressiveLM, q: UnigramLM) -> np.ndarray:
    """log q over ``lm.alphabet.symbols``; q must be positive on each.

    The minimizer gives a symbol no mass when only states that the chain
    never visits emit it; the error then names those states.
    """
    for sym in lm.alphabet.symbols:
        if q.prob(sym) <= 0.0:
            emitters = [s for s in lm.states if sym in lm.cond[s]]
            idle = [s for s in emitters if lm.visits[lm.index[s]] <= 0.0]
            hint = (f"; only unreachable states emit it: {idle!r}"
                    if idle and idle == emitters else "")
            raise DegenerateError(
                f"q must be strictly positive on the alphabet; q({sym!r}) = {q.prob(sym)}{hint}"
            )
    return np.log([q.prob(sym) for sym in lm.alphabet.symbols])


def enumerated_context_mass(lm: AutoregressiveLM, budget: EnumerationBudget) -> np.ndarray:
    """Total prefix mass of the contexts in each state, enumerated by
    length: an independent check of ``lm.visits``, its exact value.

    At every length each state's alive mass adds to its context mass and
    flows along the state's unit edges.  Enumeration stops once the alive
    mass drops to ``tail_tol`` and the context mass covers all but
    ``tail_tol`` of the prefix normalizer (or the horizon is hit, which
    raises): the contexts not yet reached can outweigh the alive mass.
    """
    eos_p, n, z = lm.eos, len(lm.states), prefix_normalizer(lm)
    # one edge per (state, unit) with positive probability
    src, unit = np.nonzero(lm.emit)
    tgt, w = lm.succ[src, unit], lm.emit[src, unit]

    mass = np.zeros(n)
    mass[lm.index[()]] = 1.0
    context_mass = np.zeros(n)
    for _ in range(budget.max_len + 1):
        context_mass += mass
        alive = float(np.sum(mass * (1.0 - eos_p)))
        uncovered = 1.0 - float(np.sum(context_mass)) / z
        if alive <= budget.tail_tol and uncovered <= budget.tail_tol:
            return context_mass
        mass = np.bincount(tgt, weights=mass[src] * w, minlength=n)
    raise ConvergenceError(
        f"alive mass {alive:.3g} and context mass {uncovered:.3g} remain after "
        f"{budget.max_len} units; tail_tol {budget.tail_tol:.3g} not met",
        remaining=max(alive, uncovered),
    )


def forward_kl_unigram(lm: AutoregressiveLM, q: UnigramLM) -> float:
    """Exact KL from the model to ``q`` read as a string distribution.

    ``q`` scores a string as the product of its unit probabilities times
    q(eos), so the KL is affine in log q: the visits times each state's
    sum of p log p (0 where p is), minus the expected counts times log q.
    """
    log_q = unigram_log_probs(lm, q)
    p = lm.next_probs
    plogp = p * np.log(np.where(p > 0.0, p, 1.0))
    return float(lm.visits @ plogp.sum(axis=1)) - float(expected_counts(lm) @ log_q)


def walk(lm: AutoregressiveLM, uniforms: Iterable[float], state: int) -> tuple[list[int], int]:
    """Draw one symbol per uniform, each placed on its state's cdf as
    ``Generator.choice(p=...)`` places it, from state row ``state`` on:
    returns the symbols' codes (unit columns, -1 for eos, after which the
    walk goes on from the start state) and the state row after the last."""
    sampler, out = lm.sampler, []
    for u in uniforms:
        codes, cdf, successors = sampler[state]
        j = bisect_right(cdf, u)
        out.append(codes[j])
        state = successors[j]
    return out, state


def sample_string(lm: AutoregressiveLM, rng: np.random.Generator) -> list[str]:
    """Draw one complete string (unit list, eos excluded) from the model.

    ``walk`` fed one ``rng.random()`` per symbol: the same draws and the
    same stream as ``rng.choice(len(symbols), p=probs)``.
    """
    units, state, out = lm.alphabet.units, lm.index[()], []
    # a.s. termination is validated at construction; the cap only guards
    # against astronomically unlucky draws
    for _ in range(10_000_000):
        (code,), state = walk(lm, (rng.random(),), state)
        if code < 0:
            return out
        out.append(units[code])
    raise ConvergenceError("sampling failed to terminate")


# -- model definition files ---------------------------------------------


def _parse_state_field(text: str) -> State:
    if text == START_STATE_MARK:
        return ()
    return tuple(text.split(" "))


def _format_state(state: State) -> str:
    return START_STATE_MARK if not state else " ".join(state)


def load_lm_tsv(path, digest=None) -> AutoregressiveLM:
    """Read a model definition file, validating schema and row sums
    (``digest``, if given, takes the file's bytes as they are read)."""
    rows: list[tuple[int, State, str, float]] = []
    units: list[str] = []
    seen_units = set()
    for lineno, line in enumerate(read_text(path, digest).split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        state_text, unit_text, prob_text = parts
        try:
            prob = float(prob_text)
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: probability {prob_text!r} is not a number"
            ) from None
        if not math.isfinite(prob) or not (0.0 < prob <= 1.0):
            raise FormatError(
                f"{path}:{lineno}: probability must be in (0, 1], got {prob}"
            )
        if unit_text != EOS_MARK and unit_text not in seen_units:
            seen_units.add(unit_text)
            units.append(unit_text)
        rows.append((lineno, _parse_state_field(state_text), unit_text, prob))
    if not rows:
        raise FormatError(f"{path}: no model rows found")

    cond: dict[State, dict[str, float]] = {}
    for lineno, state, unit_text, prob in rows:
        row = cond.setdefault(state, {})
        if unit_text in row:
            raise FormatError(
                f"{path}:{lineno}: duplicate entry for state "
                f"{_format_state(state)!r}, symbol {unit_text!r}"
            )
        row[unit_text] = prob
    for state, row in cond.items():
        total = sum(row.values())
        if abs(total - 1.0) > FILE_ROW_SUM_TOL:
            raise FormatError(
                f"{path}: rows for state {_format_state(state)!r} sum to "
                f"{total!r}, outside 1 +/- {FILE_ROW_SUM_TOL}"
            )
        for sym in row:
            row[sym] /= total
    try:
        return AutoregressiveLM(alphabet=UnitAlphabet(units=tuple(units)), cond=cond)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_lm_tsv(lm: AutoregressiveLM, path) -> None:
    """Write a model definition file (inverse of load_lm_tsv), atomically."""
    write_atomic(path, (
        f"{_format_state(state)}\t{sym}\t{float(lm.cond[state][sym])!r}\n"
        for state in lm.states
        for sym in sorted(lm.cond[state])
    ))
