"""Acceptance gate: eleven release criteria, one pass/fail line each.

Each test runs a complete criterion at its stated tolerance and time
budget, prints a single ``AC## PASS/FAIL`` line (directly to the real
stdout so the lines survive pytest's capture), and then asserts.  The
criteria cover: closed-form normalizer/minimizer values on the bundled
fixtures, enumeration mass coverage, optimality of the divergence
minimizer, exactness of both orthogonalization routes, the
reparameterization and residualization identities, variance-share
decomposition against a factorial oracle, the qualitative share
ordering across predictor encodings, end-to-end coefficient recovery
through the command line, penalized-spline behaviour, and bytewise
determinism of the artifacts.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ctxpred.cli import main as cli_main
from ctxpred.corpus import generate_synthetic
from ctxpred.errors import IdentityError
from ctxpred.hilbert import (
    MeasureTable,
    fit_projection,
    frequency_variable,
    inner_product,
    project_complement,
    sample_orthogonalize,
    surprisal_variable,
)
from ctxpred.lm import (
    EnumerationBudget,
    UnigramLM,
    enumerated_context_mass,
    expected_length,
    forward_kl_unigram,
    load_lm_tsv,
    prefix_normalizer,
    unigram_minimizer,
)
from ctxpred.regression import (
    DesignMatrix,
    Triangle,
    equivalence_report,
    lmg,
    residualization_triplet,
)
from ctxpred.seeding import named_rng
from ctxpred.smooth import SplineBasis

from conftest import ACCEPTANCE_LINES, heldout_delta, random_lm, smooth_fit, standardize
from oracles import fit_columns, lmg_by_orderings

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUDGET = EnumerationBudget(max_len=256, tail_tol=1e-6)


def _announce(num: int, desc: str, ok: bool, elapsed: float, limit: float,
              detail: str = "") -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = f"AC{num:02d} {status} {desc} [{elapsed:.2f}s/{limit:.0f}s]"
    if detail:
        line += f" {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok and elapsed < limit, line


@pytest.fixture(scope="module")
def m0():
    return load_lm_tsv(FIXTURES / "m0.tsv")


@pytest.fixture(scope="module")
def m1():
    return load_lm_tsv(FIXTURES / "m1.tsv")


@pytest.fixture(scope="module")
def mixture():
    return load_lm_tsv(FIXTURES / "mixture.tsv")


def test_ac01_fixture_exactness(m0, m1):
    """Expected length, prefix normalizer, and minimizer match the
    closed forms of the two bundled models to 1e-9."""
    t0 = time.perf_counter()
    tol = 1e-9
    errs = []
    # memoryless model: geometric length with stop 0.5
    errs.append(abs(expected_length(m0) - 1.0))
    errs.append(abs(prefix_normalizer(m0) - 2.0))
    q0 = unigram_minimizer(m0)
    errs.append(abs(q0.prob("a") - 0.3))
    errs.append(abs(q0.prob("b") - 0.2))
    errs.append(abs(q0.prob("$") - 0.5))
    errs.append(abs(q0.normalizer - 2.0))
    # order-1 model: E = 0.8*(1 + 1/0.75) = 16/15, Z = 1 + E = 31/15
    errs.append(abs(expected_length(m1) - 16.0 / 15.0))
    errs.append(abs(prefix_normalizer(m1) - 31.0 / 15.0))
    q1 = unigram_minimizer(m1)
    errs.append(abs(q1.prob("a") - 16.0 / 31.0))
    errs.append(abs(q1.prob("$") - 15.0 / 31.0))
    errs.append(abs(q1.normalizer - 31.0 / 15.0))
    worst = max(errs)
    _announce(
        1, "closed-form normalizer/minimizer values on bundled fixtures",
        worst < tol, time.perf_counter() - t0, 1.0,
        f"max err {worst:.2e} < {tol:.0e}",
    )


def test_ac02_context_mass_coverage(m0, m1):
    """Enumerated context mass covers [1 - 1e-6, 1] for both fixtures."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, lm in (("m0", m0), ("m1", m1)):
        enumerated = enumerated_context_mass(lm, BUDGET)
        total = float(np.sum(enumerated)) / prefix_normalizer(lm)
        ok &= (1.0 - 1e-6) <= total <= 1.0
        details.append(f"{name}: 1-{1.0 - total:.1e}")
    _announce(
        2, "enumerated context mass within tail tolerance of one",
        ok, time.perf_counter() - t0, 1.0, "; ".join(details),
    )


def test_ac03_minimizer_beats_perturbations(m0, m1):
    """The divergence minimizer is not beaten by any of 1000 random
    perturbations per fixture."""
    t0 = time.perf_counter()
    violations = 0
    worst_margin = math.inf
    for lm in (m0, m1):
        q = unigram_minimizer(lm)
        base_kl = forward_kl_unigram(lm, q)
        rng = named_rng(0, "simulations")
        symbols = lm.alphabet.symbols
        logq = np.log([q.prob(s) for s in symbols])
        for _ in range(1000):
            logits = logq + rng.normal(0.0, 0.25, size=logq.size)
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            cand = UnigramLM(
                probs=dict(zip(symbols, map(float, probs))), normalizer=1.0
            )
            margin = forward_kl_unigram(lm, cand) - base_kl
            worst_margin = min(worst_margin, margin)
            violations += margin < -1e-12
    _announce(
        3, "minimizer optimal against 1000 perturbations per fixture",
        violations == 0, time.perf_counter() - t0, 10.0,
        f"violations {violations}, worst margin {worst_margin:.2e}",
    )


def test_ac04_orthogonalization_exactness():
    """Measure-space projections and training-fold residualizations are
    orthogonal to their direction within 1e-10, on 100 random tables."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_exact = 0.0
    worst_sample = 0.0
    for _ in range(100):
        lm = random_lm(rng, max_units=2, max_order=1, eos_floor=0.65)
        while len(lm.alphabet.units) < 2:
            lm = random_lm(rng, max_units=2, max_order=1, eos_floor=0.65)
        table = MeasureTable.from_lm(lm)
        x = surprisal_variable(table)
        z = frequency_variable(table)
        resid, _ = project_complement(x, z)
        worst_exact = max(worst_exact, abs(inner_product(resid, z)))

        xs = rng.normal(size=60)
        zs = rng.normal(size=60) + 0.5 * xs
        train = rng.permutation(60)[:30]
        coeff = fit_projection(xs[train], zs[train])
        r = coeff.apply(xs[train], zs[train])
        corr = np.corrcoef(r, zs[train])[0, 1]
        worst_sample = max(worst_sample, abs(corr))
    ok = worst_exact < 1e-10 and worst_sample < 1e-10
    _announce(
        4, "projection and residualization exactness on 100 random tables",
        ok, time.perf_counter() - t0, 5.0,
        f"measure {worst_exact:.1e}, sample corr {worst_sample:.1e}",
    )


def test_ac05_reparameterization_identities():
    """Surprisal and pointwise-mutual-information encodings give the
    same fit on 100 random tables (predictions to 1e-10, coefficient
    identities to 1e-8)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(12, 64))
        surp = rng.gamma(3.0, 1.0, size=n)
        freq = rng.gamma(3.0, 0.7, size=n)
        y = rng.normal(10.0, 2.0, size=n) + 0.5 * surp + 1.5 * freq
        try:
            equivalence_report(y, surp, freq, pmi=freq - surp)
        except IdentityError:
            violations += 1
    _announce(
        5, "reparameterization identities hold on 100 random tables",
        violations == 0, time.perf_counter() - t0, 10.0,
        f"violations {violations}",
    )


def test_ac06_residualization_identities():
    """Coefficient-preservation identities for residualized designs
    hold in 500 random trials (1e-8)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(15, 60))
        x1 = rng.normal(size=n)
        x2 = 0.6 * x1 + rng.normal(scale=0.8, size=n)
        y = 2.0 * x1 - 1.0 * x2 + rng.normal(size=n)
        try:
            residualization_triplet(y, x1, x2)
        except IdentityError:
            violations += 1
    _announce(
        6, "residualization coefficient identities hold in 500 trials",
        violations == 0, time.perf_counter() - t0, 10.0,
        f"violations {violations}",
    )


def test_ac07_lmg_against_factorial_oracle():
    """Shares always sum to total R-squared (1e-10); on 50 instances
    with at most 4 groups they match the all-orderings average (1e-12)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    worst_sum = 0.0
    worst_oracle = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(40, 100))
        columns = {}
        groups = {}
        for g in range(p):
            width = int(rng.integers(1, 3))
            names = []
            for j in range(width):
                name = f"g{g}c{j}"
                columns[name] = rng.normal(size=n)
                names.append(name)
            groups[f"g{g}"] = names
        beta = rng.normal(size=len(columns))
        x = np.column_stack(list(columns.values()))
        y = x @ beta + rng.normal(size=n)
        report = lmg(Triangle.factor(DesignMatrix.build(columns), y), groups)
        worst_sum = max(
            worst_sum, abs(sum(report.raw_shares) - report.total_r2)
        )
        oracle = lmg_by_orderings(columns, y, groups)
        for idx, g in enumerate(report.groups):
            worst_oracle = max(worst_oracle, abs(report.shares[idx] - oracle[g]))
    ok = worst_sum < 1e-10 and worst_oracle < 1e-12
    _announce(
        7, "variance shares match the factorial oracle on 50 instances",
        ok, time.perf_counter() - t0, 30.0,
        f"sum dev {worst_sum:.1e}, oracle dev {worst_oracle:.1e}",
    )


def test_ac08_share_ordering_across_encodings(mixture):
    """With targets loading mostly on frequency, the focal predictor's
    share shrinks from raw surprisal to the mutual-information rewrite
    to the orthogonalized encoding in at least 90% of 50 replications,
    at sampled predictor correlation near 0.5 and with identical total
    R-squared across encodings in every run."""
    t0 = time.perf_counter()
    a, b, sigma = 0.25, 1.0, 0.8
    wins = 0
    corrs = []
    worst_r2_dev = 0.0
    for rep in range(50):
        synth = generate_synthetic(
            mixture, {"intercept": 0.0}, 0.0, 42, 72, seed=rep
        )
        s_raw = synth.records["surprisal"]
        f_raw = synth.records["frequency"]
        p_raw = synth.records["pmi"]
        s, f = standardize(s_raw), standardize(f_raw)
        corrs.append(float(np.corrcoef(s, f)[0, 1]))
        noise = named_rng(rep, "simulations").standard_normal(s.size)
        y = a * s + b * f + sigma * noise
        shares = {}
        totals = []
        for name, col in (
            ("surprisal", s_raw),
            ("pmi", p_raw),
            ("ortho", sample_orthogonalize(s_raw, f_raw)),
        ):
            rep_lmg = lmg(
                Triangle.factor(DesignMatrix.build({name: col, "frequency": f_raw}), y),
                {name: [name], "frequency": ["frequency"]},
            )
            shares[name] = rep_lmg.share(name)
            totals.append(rep_lmg.total_r2)
        worst_r2_dev = max(worst_r2_dev, max(totals) - min(totals))
        wins += shares["ortho"] < shares["pmi"] < shares["surprisal"]
    mean_corr = float(np.mean(corrs))
    ok = wins >= 45 and abs(mean_corr - 0.5) < 0.05 and worst_r2_dev < 1e-10
    _announce(
        8, "share ordering ortho < pmi < surprisal across 50 replications",
        ok, time.perf_counter() - t0, 120.0,
        f"wins {wins}/50, corr {mean_corr:.3f}, R2 dev {worst_r2_dev:.1e}",
    )


def test_ac09_cli_recovers_generating_coefficients(tmp_path):
    """gen + analyze on 5000 tokens at noise 1 ms recovers every
    generating coefficient within three standard errors, with positive
    held-out log-likelihood gain."""
    t0 = time.perf_counter()
    gen_dir = tmp_path / "gen"
    an_dir = tmp_path / "an"
    lm_path = str(FIXTURES / "mixture.tsv")
    code = cli_main([
        "gen", "--lm", lm_path, "--out", str(gen_dir), "--seed", "29",
        "--n-docs", "50", "--doc-len", "100", "--noise-sd", "1.0",
    ])
    assert code == 0
    code = cli_main([
        "analyze", "--lm", lm_path, "--corpus", str(gen_dir / "corpus.tsv"),
        "--out", str(an_dir), "--seed", "29", "--folds", "10",
    ])
    assert code == 0
    report = json.loads((an_dir / "report.json").read_text())
    truth = json.loads((gen_dir / "sidecar.json").read_text())["true_coeffs"]
    model = next(m for m in report["models"] if m["model"] == "surprisal")
    pooled = model["pooled_raw"]
    worst_z = 0.0
    for label, est in pooled["coeffs"].items():
        target = truth.get(label, 0.0)  # spillover coefficients are zero
        z = abs(est - target) / pooled["std_errors"][label]
        worst_z = max(worst_z, z)
    # every encoding carries informative predictors here, so each model
    # must improve on the training-mean baseline out of sample
    dlls = [m["delta_llh"]["mean"] for m in report["models"]]
    ok = worst_z < 3.0 and min(dlls) > 0.0
    _announce(
        9, "command-line run recovers generating coefficients within 3 SE",
        ok, time.perf_counter() - t0, 60.0,
        f"worst |z| {worst_z:.2f}, min delta llh {min(dlls):.3f}",
    )


def test_ac10_smooth_regression_behaviour():
    """Penalized splines reproduce exactly-linear targets under a large
    penalty (1e-6), match a hand-computed selection score (1e-10), and
    beat the linear fit out of sample on at least 90% of 50 nonlinear
    draws."""
    t0 = time.perf_counter()
    # (a) affine targets live in the penalty null space
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 10.0, size=80)
    y_lin = 3.0 - 0.8 * x
    fit_lin = smooth_fit({"x": x}, y_lin, k=6, lambda_grid=[1e8])
    linear_resid = float(np.max(np.abs(fit_lin.predict({"x": x}) - y_lin)))

    # (b) selection score against plain linear algebra
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ys = np.array([0.3, -0.1, 0.8, 1.9, 1.7])
    lam = 2.5
    fit = smooth_fit({"x": xs}, ys, k=3, lambda_grid=[lam])
    basis = SplineBasis.from_quantiles(xs, 3)
    raw = basis.design(xs)[:, 1:]
    design = np.column_stack([np.ones(5), raw - raw.mean(axis=0)])
    pen = np.zeros((3, 3))
    pen[1:, 1:] = basis.penalty()[1:, 1:]
    m = design.T @ design + lam * pen
    beta = np.linalg.solve(m, design.T @ ys)
    sse = float((ys - design @ beta) @ (ys - design @ beta))
    edf = float(np.trace(np.linalg.solve(m, design.T @ design)))
    gcv_dev = abs(fit.gcv - 5 * sse / (5 - edf) ** 2)
    edf_dev = abs(fit.edf - edf)

    # (c) held-out gain on a nonlinear signal
    wins = 0
    for trial in range(50):
        rng = np.random.default_rng(20_000 + trial)
        xv = rng.uniform(0, 1, size=400)
        yv = np.sin(2.0 * np.pi * xv) + 0.3 * rng.normal(size=400)
        tr, te = np.arange(300), np.arange(300, 400)
        sfit = smooth_fit({"x": xv[tr]}, yv[tr])
        smooth_delta = heldout_delta(
            yv[tr], sfit.residual_variance, yv[te], sfit.predict({"x": xv[te]})
        )
        line = fit_columns({"x": xv[tr]}, yv[tr])
        lin_te = line.coef("intercept") + line.coef("x") * xv[te]
        lin_delta = heldout_delta(yv[tr], line.residual_variance, yv[te], lin_te)
        wins += smooth_delta.per_token > lin_delta.per_token
    ok = linear_resid < 1e-6 and gcv_dev < 1e-10 and edf_dev < 1e-10 and wins >= 45
    _announce(
        10, "spline fits: affine exactness, selection score, held-out gain",
        ok, time.perf_counter() - t0, 120.0,
        f"affine {linear_resid:.1e}, score dev {gcv_dev:.1e}, wins {wins}/50",
    )


def test_ac11_bytewise_determinism(tmp_path):
    """Two identical seeded runs produce byte-identical corpus, report,
    and share table."""
    t0 = time.perf_counter()
    lm_path = str(FIXTURES / "mixture.tsv")
    digests = []
    for tag in ("one", "two"):
        gen_dir = tmp_path / f"gen_{tag}"
        an_dir = tmp_path / f"an_{tag}"
        assert cli_main([
            "gen", "--lm", lm_path, "--out", str(gen_dir), "--seed", "17",
            "--n-docs", "20", "--doc-len", "50",
        ]) == 0
        assert cli_main([
            "analyze", "--lm", lm_path,
            "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(an_dir), "--seed", "17", "--folds", "5",
        ]) == 0
        digests.append(tuple(
            hashlib.sha256((d / name).read_bytes()).hexdigest()
            for d, name in (
                (gen_dir, "corpus.tsv"),
                (an_dir, "report.json"),
                (an_dir, "lmg.csv"),
            )
        ))
    ok = digests[0] == digests[1]
    _announce(
        11, "identical seeded runs are byte-identical",
        ok, time.perf_counter() - t0, 120.0,
        "corpus.tsv, report.json, lmg.csv",
    )
