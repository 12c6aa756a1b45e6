"""Unit tests for the autoregressive model core.

Derived expectations are frozen from independent enumeration oracles
(see oracles.py); the production linear-solve path must agree with them
within the stated tail bounds.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_m0, make_m1, make_m2_partial, random_lm
from ctxpred.errors import (
    ConfigError,
    ConvergenceError,
    DegenerateError,
    DivergenceError,
    FormatError,
    SymbolError,
)
from ctxpred.hilbert import MeasureTable, frequency_variable
from ctxpred.lm import (
    EOS_MARK,
    AutoregressiveLM,
    EnumerationBudget,
    UnigramLM,
    UnitAlphabet,
    conditional,
    enumerated_context_mass,
    expected_counts,
    expected_length,
    forward_kl_unigram,
    load_lm_tsv,
    prefix_normalizer,
    sample_string,
    unigram_minimizer,
    write_lm_tsv,
)

# deep enough that the enumerated context mass leaves out less than
# 1e-15 of the prefix normalizer
DEEP = EnumerationBudget(max_len=1024, tail_tol=1e-15)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestFrozenValues:
    """Expected values derived from enumeration before implementation."""

    def test_m0_expected_length_closed_form(self, m0):
        # memoryless: E = (1 - 0.5) / 0.5 = 1, frozen from the geometric oracle
        assert oracles.memoryless_expected_length(0.5) == 1.0
        assert expected_length(m0) == pytest.approx(1.0, abs=1e-9)

    def test_m0_expected_length_vs_enumeration(self, m0):
        est, _ = oracles.brute_expected_length(m0, 16)
        tail = oracles.memoryless_length_tail(0.5, 16)
        assert abs(expected_length(m0) - est) <= tail + 1e-12

    def test_m0_normalizer(self, m0):
        assert prefix_normalizer(m0) == pytest.approx(2.0, abs=1e-9)

    def test_m0_minimizer_is_its_own_marginal(self, m0):
        q = unigram_minimizer(m0)
        assert q.prob("a") == pytest.approx(0.3, abs=1e-9)
        assert q.prob("b") == pytest.approx(0.2, abs=1e-9)
        assert q.prob("$") == pytest.approx(0.5, abs=1e-9)
        assert q.normalizer == pytest.approx(2.0, abs=1e-9)

    def test_m1_expected_length(self, m1):
        # literal enumeration: strings are a^n with mass 0.8 * 0.25^(n-1) * 0.75
        est, captured = oracles.brute_expected_length(m1, 120)
        assert captured > 1.0 - 1e-12
        assert est == pytest.approx(16.0 / 15.0, abs=1e-12)
        assert expected_length(m1) == pytest.approx(16.0 / 15.0, abs=1e-9)
        assert prefix_normalizer(m1) == pytest.approx(31.0 / 15.0, abs=1e-9)

    def test_m1_minimizer(self, m1):
        q = unigram_minimizer(m1)
        counts = oracles.brute_unigram_counts(m1, 120)
        z = sum(counts.values())
        assert q.prob("a") == pytest.approx(counts["a"] / z, abs=1e-9)
        assert q.prob("a") == pytest.approx(16.0 / 31.0, abs=1e-9)
        assert q.prob("$") == pytest.approx(15.0 / 31.0, abs=1e-9)

    def test_m1_conditionals_match_prefix_mass_ratio(self, m1):
        # table lookups must agree with ratios of enumerated prefix masses
        p_empty = oracles.brute_prefix_mass(m1, (), 60)
        p_a = oracles.brute_prefix_mass(m1, ("a",), 60)
        p_aa = oracles.brute_prefix_mass(m1, ("a", "a"), 60)
        assert conditional(m1, (), "a") == pytest.approx(p_a / p_empty, abs=1e-10)
        assert conditional(m1, ("a",), "a") == pytest.approx(p_aa / p_a, abs=1e-10)
        assert conditional(m1, (), "a") == 0.8
        assert conditional(m1, ("a",), "a") == 0.25

    def test_m1_eos_conditional_is_string_to_prefix_ratio(self, m1):
        # p(eos | c) = p(c as a complete string) / P(c)
        p_a = oracles.brute_prefix_mass(m1, ("a",), 60)
        complete = oracles.string_prob(m1, ("a",))
        assert conditional(m1, ("a",), "$") == pytest.approx(
            complete / p_a, abs=1e-10
        )


class TestForwardKL:
    """The exact KL, held to literal string enumeration on m1 and to the
    chain rule over the enumerated context mass elsewhere."""

    def test_m0_against_own_minimizer_is_zero(self, m0):
        q = unigram_minimizer(m0)
        assert abs(forward_kl_unigram(m0, q)) <= 1e-9

    def test_matches_brute_enumeration(self, m1):
        q = UnigramLM(probs={"a": 0.4, "$": 0.6})
        brute = oracles.brute_forward_kl(m1, q, 120)
        assert forward_kl_unigram(m1, q) == pytest.approx(brute, abs=1e-12)

    def test_moments_match_brute_enumeration(self, m1):
        brute = oracles.brute_unigram_counts(m1, 120)
        assert expected_counts(m1) == pytest.approx(
            [brute[s] for s in m1.alphabet.symbols], abs=1e-12
        )
        q = unigram_minimizer(m1)
        assert forward_kl_unigram(m1, q) == pytest.approx(
            oracles.brute_forward_kl(m1, q, 120), abs=1e-12
        )

    def test_counts_match_visit_solve_on_multi_unit_models(self, m0):
        mixture = load_lm_tsv(FIXTURES / "mixture.tsv")
        for lm in (m0, mixture):
            mass = enumerated_context_mass(lm, DEEP)
            counts = oracles.chain_rule_counts(lm, mass)
            q = unigram_minimizer(lm)
            solved = [q.normalizer * q.prob(s) for s in lm.alphabet.symbols]
            assert solved == pytest.approx([counts[s] for s in lm.alphabet.symbols], abs=1e-12)
            assert forward_kl_unigram(lm, q) == pytest.approx(
                oracles.chain_rule_kl(lm, q, mass), abs=1e-12
            )

    def test_m1_minimizer_beats_random_unigrams(self, m1):
        q_star = unigram_minimizer(m1)
        kl_star = forward_kl_unigram(m1, q_star)
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = rng.dirichlet(np.ones(2))
            q = UnigramLM(probs={"a": float(w[0]), "$": float(w[1])})
            if abs(q.prob("a") - q_star.prob("a")) < 1e-6:
                continue
            assert forward_kl_unigram(m1, q) > kl_star

    def test_rejects_zero_support(self, m0):
        with pytest.raises(DegenerateError):
            forward_kl_unigram(m0, UnigramLM(probs={"a": 0.5, "$": 0.5}))

    def test_budget_exhaustion_raises(self, m1):
        # the KL reads no enumeration: a budget the enumeration of
        # contexts cannot meet leaves it defined
        with pytest.raises(ConvergenceError) as err:
            enumerated_context_mass(m1, EnumerationBudget(max_len=1, tail_tol=1e-9))
        assert err.value.remaining is not None
        q = unigram_minimizer(m1)
        assert forward_kl_unigram(m1, q) == pytest.approx(
            oracles.brute_forward_kl(m1, q, 120), abs=1e-12
        )


class TestValidation:
    def test_divergent_model_rejected(self):
        with pytest.raises(DivergenceError):
            AutoregressiveLM(
                alphabet=UnitAlphabet(units=("a",)),
                cond={(): {"a": 1.0}},
            )

    def test_near_critical_model_rejected(self):
        with pytest.raises(DivergenceError):
            AutoregressiveLM(
                alphabet=UnitAlphabet(units=("a",)),
                cond={(): {"a": 1.0 - 1e-12, "$": 1e-12}},
            )

    def test_row_sum_enforced(self):
        with pytest.raises(FormatError):
            AutoregressiveLM(
                alphabet=UnitAlphabet(units=("a",)),
                cond={(): {"a": 0.5, "$": 0.4}},
            )

    def test_empty_string_model(self):
        lm = AutoregressiveLM(alphabet=UnitAlphabet(units=()), cond={(): {"$": 1.0}})
        assert expected_length(lm) == 0.0
        q = unigram_minimizer(lm)
        assert q.prob("$") == 1.0
        assert q.normalizer == pytest.approx(1.0)

    def test_unknown_symbol(self, m0):
        with pytest.raises(SymbolError):
            conditional(m0, (), "z")
        with pytest.raises(SymbolError):
            conditional(m0, ("z",), "a")

    def test_unreachable_context(self):
        lm = AutoregressiveLM(
            alphabet=UnitAlphabet(units=("a", "b")),
            cond={
                (): {"a": 0.5, "$": 0.5},
                ("a",): {"a": 0.2, "$": 0.8},
            },
        )
        with pytest.raises(DegenerateError):
            conditional(lm, ("b",), "a")

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            EnumerationBudget(max_len=0)
        with pytest.raises(ConfigError):
            EnumerationBudget(tail_tol=0.0)
        with pytest.raises(ConfigError):
            EnumerationBudget(tail_tol=0.01)

    def test_alphabet_validation(self):
        with pytest.raises(FormatError):
            UnitAlphabet(units=("a", "a"))
        with pytest.raises(FormatError):
            UnitAlphabet(units=("has space",))
        with pytest.raises(FormatError):
            UnitAlphabet(units=("$",))


class TestDefinitionFiles:
    def test_roundtrip(self, tmp_path, m1):
        path = tmp_path / "m1.tsv"
        write_lm_tsv(m1, path)
        back = load_lm_tsv(path)
        assert back.cond == m1.cond
        assert back.alphabet.units == m1.alphabet.units

    def test_numpy_probabilities_roundtrip(self, tmp_path):
        # probabilities that come out of numpy arithmetic are np.float64,
        # whose repr under numpy 2 is "np.float64(0.7)"
        cond = {(): {"a": np.float64(0.7), EOS_MARK: np.float64(1.0) - np.float64(0.7)}}
        lm = AutoregressiveLM(alphabet=UnitAlphabet(units=("a",)), cond=cond)
        path = tmp_path / "numpy.tsv"
        write_lm_tsv(lm, path)
        back = load_lm_tsv(path)
        assert back.cond == lm.cond

    def test_bad_row_sum_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("^\ta\t0.4\n^\t$\t0.5\n")
        with pytest.raises(FormatError):
            load_lm_tsv(path)

    def test_small_row_sum_slack_is_renormalized(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("^\ta\t0.5\n^\t$\t0.5000000001\n")
        lm = load_lm_tsv(path)
        assert abs(sum(lm.cond[()].values()) - 1.0) <= 1e-12

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("^\ta\t0.25\n^\ta\t0.25\n^\t$\t0.5\n")
        with pytest.raises(FormatError):
            load_lm_tsv(path)

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "cols.tsv"
        path.write_text("^\ta\n")
        with pytest.raises(FormatError):
            load_lm_tsv(path)

    def test_nonnumeric_prob_rejected(self, tmp_path):
        path = tmp_path / "nan.tsv"
        path.write_text("^\ta\tlots\n")
        with pytest.raises(FormatError):
            load_lm_tsv(path)


class TestRandomModels:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_normalizer_identity(self, seed):
        lm = random_lm(np.random.default_rng(seed))
        z_pi = prefix_normalizer(lm)
        z_q = unigram_minimizer(lm).normalizer
        assert abs(z_pi - z_q) <= 1e-10
        assert z_pi >= 1.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_minimizer_beats_perturbations(self, seed):
        rng = np.random.default_rng(seed)
        lm = random_lm(rng)
        q_star = unigram_minimizer(lm)
        kl_star = forward_kl_unigram(lm, q_star)
        symbols = lm.alphabet.symbols
        for _ in range(5):
            w = rng.dirichlet(np.ones(len(symbols)))
            q = UnigramLM(probs={s: float(v) for s, v in zip(symbols, w)})
            dist = max(abs(q.prob(s) - q_star.prob(s)) for s in symbols)
            if dist < 1e-6:
                continue
            assert forward_kl_unigram(lm, q) >= kl_star - 1e-12

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_exact_kl_matches_chain_rule_over_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        lm = random_lm(rng, max_order=2)
        symbols = lm.alphabet.symbols
        w = rng.dirichlet(np.ones(len(symbols)))
        mass = enumerated_context_mass(lm, DEEP)
        for q in (unigram_minimizer(lm), UnigramLM(probs=dict(zip(symbols, map(float, w))))):
            assert forward_kl_unigram(lm, q) == pytest.approx(
                oracles.chain_rule_kl(lm, q, mass), abs=1e-12
            )

    def test_sampling_respects_alphabet(self, m0):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = sample_string(m0, rng)
            assert all(u in ("a", "b") for u in s)

    def test_sample_lengths_match_expectation(self, m1):
        rng = np.random.default_rng(1)
        lens = [len(sample_string(m1, rng)) for _ in range(4000)]
        assert np.mean(lens) == pytest.approx(16.0 / 15.0, abs=0.05)

    @pytest.mark.parametrize("name", ["m0", "m1", "mixture", "m2_partial"])
    def test_sampling_matches_rng_choice(self, name):
        if name == "m2_partial":
            lm = make_m2_partial()
        else:
            lm = load_lm_tsv(FIXTURES / f"{name}.tsv")
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(500):
            assert sample_string(lm, fast) == oracles.choice_sample_string(lm, slow)
        # the same number of draws: the streams continue in step
        assert fast.random() == slow.random()


class TestChainIndex:
    """The one successor table that sampling, scoring and enumeration read."""

    def test_m0_successors_are_all_start_state(self, m0):
        assert m0.states == ((),)
        assert m0.succ.shape == (1, 2)
        assert np.all(m0.succ == m0.index[()])

    def test_undefined_short_state_has_no_successor(self):
        lm = make_m2_partial()
        assert lm.states == ((), ("a",), ("a", "b"), ("b", "a"))
        row = {s: [lm.states[j] if j >= 0 else None for j in lm.succ[i]]
               for i, s in enumerate(lm.states)}
        assert row[()] == [("a",), None]
        assert row[("a",)] == [None, ("a", "b")]
        assert row[("a", "b")] == [("b", "a"), None]
        assert row[("b", "a")] == [None, ("a", "b")]
        assert lm.emit.tolist() == [[0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, 0.5]]
        assert lm.eos.tolist() == [0.5] * 4
        # the next-symbol table is the unit columns, then the eos column
        assert lm.next_probs.tolist() == [row + [0.5] for row in lm.emit.tolist()]
        # each state's successor and transition rows agree
        for i, s in enumerate(lm.states):
            for a, u in enumerate(lm.alphabet.units):
                if lm.emit[i, a] > 0.0:
                    assert lm.trans[i, lm.succ[i, a]] == lm.emit[i, a]
                    assert lm.states[lm.succ[i, a]] == lm.next_state(s, u)

    def test_chain_tables_are_read_only(self, m1):
        for arr in (m1.trans, m1.next_probs, m1.emit, m1.eos, m1.succ, m1.visits):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_visit_system_solved_once_per_model(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        lm = load_lm_tsv(FIXTURES / "mixture.tsv")
        assert not calls  # solved on first use, not at load
        z = prefix_normalizer(lm)
        q = unigram_minimizer(lm)
        table = MeasureTable.from_lm(lm)
        frequency_variable(table)
        assert len(calls) == 1
        assert z == pytest.approx(q.normalizer, abs=1e-10)


def test_math_is_in_nats(m1):
    # one explicit pin so a base change cannot slip in silently
    assert math.log(31.0 / 16.0) == pytest.approx(0.6613984822453650, abs=1e-12)
