"""Command-line contract: subcommands, exit codes, deterministic artifacts."""

import csv
import hashlib
import json
import math
import multiprocessing
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctxpred
import oracles
from ctxpred import pipeline, regression, smooth
from ctxpred.cli import (
    EXIT_CONFIG,
    EXIT_COVERAGE,
    EXIT_IDENTITY,
    EXIT_NUMERIC,
    EXIT_OK,
    OPTIONS,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from ctxpred.corpus import CORPUS_HEADER, parse_corpus
from ctxpred.errors import ConfigError, RankDeficiencyError
from ctxpred.lm import (
    EnumerationBudget,
    UnigramLM,
    enumerated_context_mass,
    load_lm_tsv,
    unigram_minimizer,
)
from ctxpred.pipeline import analyze_observations
from ctxpred.seeding import named_rng

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MIXTURE = str(FIXTURES / "mixture.tsv")
M0 = str(FIXTURES / "m0.tsv")
M1 = str(FIXTURES / "m1.tsv")


def reference_kl(lm_path: str):
    """Forward KL to a unigram by a route apart from the visit solve:
    literal string enumeration on m1 (its strings are a^n), else the chain
    rule over the context mass enumerated far below the tolerances here."""
    lm = load_lm_tsv(lm_path)
    if lm_path == M1:
        return lambda q: oracles.brute_forward_kl(lm, q, 120)
    mass = enumerated_context_mass(lm, EnumerationBudget(max_len=1024, tail_tol=1e-15))
    return lambda q: oracles.chain_rule_kl(lm, q, mass)


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main([
        "gen", "--lm", MIXTURE, "--out", str(out), "--seed", "9",
        "--n-docs", "15", "--doc-len", "40", "--noise-sd", "9",
    ])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def analyze_dir(tmp_path_factory, gen_dir):
    out = tmp_path_factory.mktemp("analyze")
    code = main([
        "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
        "--out", str(out), "--seed", "9", "--folds", "4",
    ])
    assert code == EXIT_OK
    return out


class TestGen:
    def test_artifacts_exist(self, gen_dir):
        for name in ("corpus.tsv", "sidecar.json", "manifest.json"):
            assert (gen_dir / name).exists(), name

    def test_sidecar_records_truth(self, gen_dir):
        sidecar = json.loads((gen_dir / "sidecar.json").read_text())
        assert sidecar["true_coeffs"]["intercept"] == 200.0
        assert sidecar["noise_sd"] == 9.0

    def test_manifest_digests_match_files(self, gen_dir):
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((gen_dir / name).read_bytes()).hexdigest()
            assert actual == digest, name

    def test_manifest_has_no_timestamps(self, gen_dir):
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert set(manifest) == {
            "command", "config", "config_sha256", "seed", "inputs", "outputs",
            "versions",
        }

    def test_repeat_run_is_byte_identical(self, gen_dir, tmp_path):
        code = main([
            "gen", "--lm", MIXTURE, "--out", str(tmp_path), "--seed", "9",
            "--n-docs", "15", "--doc-len", "40", "--noise-sd", "9",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "corpus.tsv").read_bytes() == (
            gen_dir / "corpus.tsv"
        ).read_bytes()

    def test_coef_flags_replace_defaults(self, tmp_path):
        code = main([
            "gen", "--lm", M1, "--out", str(tmp_path), "--seed", "1",
            "--n-docs", "3", "--doc-len", "10",
            "--coef", "intercept=120", "--coef", "surprisal=5",
        ])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["coeffs"] == {
            "intercept": 120.0, "surprisal": 5.0,
        }


class TestAnalyze:
    def test_artifacts_exist(self, analyze_dir):
        for name in ("report.json", "lmg.csv", "manifest.json"):
            assert (analyze_dir / name).exists(), name

    def test_report_shape(self, analyze_dir):
        report = json.loads((analyze_dir / "report.json").read_text())
        assert [m["model"] for m in report["models"]] == [
            "surprisal", "pmi", "ortho",
        ]
        assert report["folds"] == 4

    def test_lmg_csv_shape(self, analyze_dir):
        lines = (analyze_dir / "lmg.csv").read_text().splitlines()
        assert lines[0] == "model,group,fold,share,total_r2"
        # 3 models x 4 folds x 3 paired groups
        assert len(lines) == 1 + 36

    def test_repeat_run_is_byte_identical(self, analyze_dir, gen_dir, tmp_path):
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path), "--seed", "9", "--folds", "4",
        ])
        assert code == EXIT_OK
        for name in ("report.json", "lmg.csv"):
            assert (tmp_path / name).read_bytes() == (
                analyze_dir / name
            ).read_bytes(), name

    def test_report_counts_unread_and_malformed_rows(self, gen_dir, tmp_path, capsys):
        lines = (gen_dir / "corpus.tsv").read_text().splitlines()
        fields = lines[6].split("\t")  # one participant: this token is unread
        lines[6] = "\t".join(fields[:-1] + ["1"])
        lines.append("junk")
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("\n".join(lines) + "\n")
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--folds", "3",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_dropped_unread"] == 1
        assert report["n_malformed_rows"] == 1
        assert report["n_rows"] + report["n_dropped_unread"] + report[
            "n_dropped_document_initial"
        ] == len(lines) - 2
        assert "1 unread by all, 1 malformed" in out

    def test_note_names_the_first_skipped_rows(self, gen_dir, tmp_path, capsys):
        lines = (gen_dir / "corpus.tsv").read_text().splitlines()
        bad = [f"p00\tx\t0\t{i}\ta\t200.0\t2" for i in range(6)]
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("\n".join(lines + bad) + "\n")
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--folds", "3",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_OK
        shown = "; ".join(
            f"line {len(lines) + 1 + i}: skipped must be 0 or 1, got '2'" for i in range(5)
        )
        assert f"note: 6 malformed corpus rows skipped: {shown}\n" in err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_malformed_rows"] == 6

    def test_smooth_on_discrete_predictors(self, gen_dir, tmp_path, capsys):
        # the mixture's frequency and length take 3 values each, fewer
        # than the 6 default knots: each term gets one knot per distinct
        # value (or per distinct quantile), and the report says so
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path), "--folds", "3", "--smooth",
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        smooth = [m for m in report["models"] if m["kind"] == "smooth"]
        assert len(smooth) == 3
        for model in smooth:
            for fold in model["folds"]:
                ks = {t["term"]: t["k"] for t in fold["terms"]}
                assert ks["frequency"] == ks["prev_frequency"] == 3
                assert all(3 <= k < 6 for k in ks.values())

    def test_external_source(self, tmp_path, continuous_files):
        pred, corpus = continuous_files
        code = main([
            "analyze", "--external", str(pred), "--corpus", str(corpus),
            "--out", str(tmp_path), "--seed", "3", "--folds", "3",
        ])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["inputs"] == {
            "corpus": hashlib.sha256(corpus.read_bytes()).hexdigest(),
            "external": hashlib.sha256(pred.read_bytes()).hexdigest(),
        }

    @pytest.mark.parametrize("layout", ["crlf", "participant-major"])
    def test_layouts_of_one_corpus_analyze_alike(self, tmp_path, layout):
        """A CRLF copy and a participant-major copy of a corpus give the
        same report and lmg.csv; the manifest digests the copy's bytes."""
        gen = tmp_path / "gen"
        assert main(["gen", "--lm", MIXTURE, "--out", str(gen), "--seed", "5",
                     "--n-docs", "6", "--doc-len", "40", "--participants", "3"]) == EXIT_OK
        head, *lines = (gen / "corpus.tsv").read_bytes().splitlines(keepends=True)
        if layout == "crlf":
            data = (head + b"".join(lines)).replace(b"\n", b"\r\n")
        else:
            data = head + b"".join(sorted(lines, key=lambda line: line.split(b"\t")[0]))
        copy = tmp_path / "copy.tsv"
        copy.write_bytes(data)
        for name, corpus in (("original", gen / "corpus.tsv"), (layout, copy)):
            assert main(["analyze", "--lm", MIXTURE, "--corpus", str(corpus),
                         "--out", str(tmp_path / name), "--seed", "5", "--folds", "3"]) == EXIT_OK
        for name in ("report.json", "lmg.csv"):
            assert (tmp_path / layout / name).read_bytes() == (
                tmp_path / "original" / name).read_bytes(), name
        manifest = json.loads((tmp_path / layout / "manifest.json").read_text())
        assert manifest["inputs"]["corpus"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", ["gen", "analyze", "oracle"])
def test_model_digest_is_of_the_bytes_loaded(
    command, gen_dir, tmp_path, monkeypatch, capsys
):
    """A model file rewritten once it is loaded: the manifest holds the
    digest of the bytes that were loaded, not of the file's new ones."""
    model = tmp_path / "model.tsv"
    loaded, rewritten = Path(MIXTURE).read_bytes(), Path(M0).read_bytes()
    model.write_bytes(loaded)
    load = ctxpred.lm.load_lm_tsv

    def load_then_rewrite(*args, **kwargs):
        lm = load(*args, **kwargs)
        model.write_bytes(rewritten)
        return lm

    monkeypatch.setattr(ctxpred.lm, "load_lm_tsv", load_then_rewrite)
    out = tmp_path / "out"
    argv = {
        "gen": ["--n-docs", "2", "--doc-len", "5"],
        "analyze": ["--corpus", str(gen_dir / "corpus.tsv"), "--folds", "3"],
        "oracle": ["--perturbations", "10"],
    }[command]
    assert main([command, "--lm", str(model), "--out", str(out), *argv]) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]["lm"] == hashlib.sha256(loaded).hexdigest()


def frequency_as_length(pred, path):
    """The predictor file ``pred`` written to ``path`` with each token's
    frequency replaced by its length."""
    header, *lines = pred.read_text().splitlines()
    rows = [line.split("\t") for line in lines]
    path.write_text("\n".join(
        [header] + ["\t".join([*r[:4], repr(float(len(r[2])))]) for r in rows]
    ) + "\n")
    return path


@pytest.fixture(scope="module")
def continuous_files(tmp_path_factory):
    import numpy as np

    from conftest import observation_table
    from ctxpred.corpus import write_corpus_tsv
    from ctxpred.predictors import write_external_tsv

    rng = np.random.default_rng(23)
    obs, recs = [], []
    for d in range(8):
        doc = f"doc{d}"
        for t in range(30):
            surp = float(rng.gamma(4.0, 0.8))
            freq = float(rng.gamma(5.0, 0.5))
            token = "w" * int(rng.integers(1, 5))
            rt = 150.0 + 12.0 * surp + 5.0 * freq + rng.normal(0.0, 6.0)
            obs.append(("p0", doc, 0, t, token, float(rt), False))
            recs.append((doc, t, token, surp, freq))
    doc_id, token_idx, token, surp, freq = zip(*recs)
    recs = oracles.table_from_lists(
        doc_id=doc_id, token_idx=np.array(token_idx), token=token,
        surprisal=np.array(surp), frequency=np.array(freq),
    )
    obs = observation_table(obs)
    root = tmp_path_factory.mktemp("continuous")
    write_external_tsv(recs, root / "pred.tsv")
    write_corpus_tsv(obs, root / "corpus.tsv")
    return root / "pred.tsv", root / "corpus.tsv"


class TestOracle:
    @pytest.mark.parametrize("lm_path", [M0, M1])
    def test_all_checks_pass(self, lm_path, capsys):
        code = main([
            "oracle", "--lm", lm_path, "--seed", "4", "--perturbations", "100",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        passes = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(passes) == 3
        assert not any(l.startswith("FAIL") for l in out.splitlines())

    def test_writes_json_when_asked(self, tmp_path, capsys):
        code = main([
            "oracle", "--lm", M0, "--seed", "4", "--perturbations", "50",
            "--out", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["all_passed"] is True
        assert {c["name"] for c in payload["checks"]} == {
            "context_mass", "minimizer_optimality", "projection_orthogonality",
        }

    def test_bad_predictor_set_in_flag_is_clean_config_error(
        self, capsys, gen_dir
    ):
        # the predictor-set parser runs inside argparse's type callback;
        # its ConfigError must still map to the config exit code
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", "unused", "--predictors", "surprisal,frequency",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "unknown predictor set 'frequency'" in err
        assert "Traceback" not in err

    def test_mixture_model_passes_all_checks(self, capsys):
        # the mixture's context tree grows too fast to enumerate context
        # by context; the state-lumped measure covers it in a few levels
        code = main([
            "oracle", "--lm", MIXTURE, "--seed", "4", "--perturbations", "100",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert sum(l.startswith("PASS") for l in lines) == 3
        assert not any(l.startswith("FAIL") for l in lines)

    def test_unmeetable_budget_degrades_per_check(self, tmp_path, capsys):
        # two units cannot cover m0's strings or contexts; only the context
        # mass reads the enumeration, so it alone must fail, with the error
        # attached, and oracle.json must be written
        code = main([
            "oracle", "--lm", M0, "--seed", "4", "--max-len", "2",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_NUMERIC
        lines = out.splitlines()
        assert sum(l.startswith("PASS") for l in lines) == 2
        fails = [l for l in lines if l.startswith("FAIL")]
        assert fails == [next(l for l in lines if "context_mass" in l)]
        assert "error=" in fails[0] and "tail_tol" in fails[0]
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["all_passed"] is False
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["minimizer_optimality"]["passed"] is True
        assert by_name["projection_orthogonality"]["passed"] is True
        assert by_name["context_mass"]["passed"] is False
        assert by_name["context_mass"]["residual"] is None
        assert by_name["context_mass"]["details"]["error"]

    def test_unreachable_unit_degrades_per_check(self, tmp_path, capsys):
        # 'b' is emitted only after 'b', which no string reaches, so the
        # unigram minimizer gives it zero mass and log q(b) is undefined:
        # only the minimizer check depends on log q
        lm_path = tmp_path / "unreachable.tsv"
        lm_path.write_text(
            "^\ta\t0.6\n^\t$\t0.4\na\ta\t0.5\na\t$\t0.5\nb\tb\t0.5\nb\t$\t0.5\n"
        )
        out_dir = tmp_path / "out"
        code = main(["oracle", "--lm", str(lm_path), "--seed", "4", "--out", str(out_dir)])
        capsys.readouterr()
        assert code == EXIT_NUMERIC
        by_name = {c["name"]: c for c in json.loads((out_dir / "oracle.json").read_text())["checks"]}
        assert len(by_name) == 3
        failed = by_name.pop("minimizer_optimality")
        assert failed["residual"] is None and failed["passed"] is False
        assert "strictly positive" in failed["details"]["error"]
        assert "only unreachable states emit it: [('b',)]" in failed["details"]["error"]
        assert all(c["passed"] for c in by_name.values())

    @pytest.mark.parametrize("rows", [
        "^\ta\t0.3333333333333333\n^\tb\t0.3333333333333333\n^\t$\t0.3333333333333334\n",
        "^\ta\t0.5\n^\t$\t0.5\n",
    ], ids=["uniform", "one_unit"])
    def test_constant_frequency_degrades_per_check(self, rows, tmp_path, capsys):
        # every unit has one context-free probability, so frequency is
        # constant and spans no direction: only the projection reads it
        lm_path = tmp_path / "constant.tsv"
        lm_path.write_text(rows)
        out_dir = tmp_path / "out"
        code = main(["oracle", "--lm", str(lm_path), "--seed", "4", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_NUMERIC
        assert "FAIL projection_orthogonality error=" in out
        payload = json.loads((out_dir / "oracle.json").read_text())
        assert payload["all_passed"] is False
        by_name = {c["name"]: c for c in payload["checks"]}
        assert len(by_name) == 3
        failed = by_name.pop("projection_orthogonality")
        assert failed["residual"] is None and failed["passed"] is False
        assert "'frequency' has zero variance" in failed["details"]["error"]
        assert all(c["passed"] for c in by_name.values())

    @pytest.mark.parametrize("lm_path", [M0, M1, MIXTURE])
    def test_batched_margins_match_per_candidate_kl(self, lm_path, tmp_path, capsys):
        # the oracle prices every perturbation with one dot product on the
        # exact counts; the same draws scored one full KL at a time, each
        # by a route apart from the visit solve, must agree
        code = main([
            "oracle", "--lm", lm_path, "--seed", "8", "--perturbations", "50",
            "--out", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "oracle.json").read_text())
        details = next(
            c["details"] for c in payload["checks"]
            if c["name"] == "minimizer_optimality"
        )

        lm = load_lm_tsv(lm_path)
        kl = reference_kl(lm_path)
        q = unigram_minimizer(lm)
        ref_kl_min = kl(q)
        rng = named_rng(8, "simulations")
        symbols = lm.alphabet.symbols
        logq = np.log([q.prob(s) for s in symbols])
        worst = math.inf
        violations = 0
        for _ in range(50):
            logits = logq + rng.normal(0.0, 0.25, size=logq.size)
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            cand = UnigramLM(probs=dict(zip(symbols, map(float, probs))))
            margin = kl(cand) - ref_kl_min
            worst = min(worst, margin)
            violations += margin < -1e-12
        assert details["kl_minimizer"] == pytest.approx(ref_kl_min, abs=1e-12)
        assert details["worst_margin"] == pytest.approx(worst, abs=1e-12)
        assert details["violations"] == violations

    @pytest.mark.parametrize("lm_path", [M1, MIXTURE])
    def test_kl_minimizer_is_exact_at_the_default_budget(self, lm_path, tmp_path, capsys):
        # the KL reads no enumeration; read off the default budget's, it
        # fell short by the left-out tail: 5.0e-6 on m1, 1.5e-5 on mixture
        code = main(["oracle", "--lm", lm_path, "--perturbations", "10",
                     "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        checks = json.loads((tmp_path / "oracle.json").read_text())["checks"]
        details = next(c["details"] for c in checks if c["name"] == "minimizer_optimality")
        q = unigram_minimizer(load_lm_tsv(lm_path))
        assert details["kl_minimizer"] == pytest.approx(reference_kl(lm_path)(q), abs=1e-12)

    @pytest.mark.parametrize("seed", ["42", "221"])
    def test_m1_minimizer_passes_at_seeds_truncation_failed(self, seed, capsys):
        # scored with truncated counts, the worst of these perturbations
        # moved log q so little that the left-out tail outweighed its true
        # second-order margin (residual 1.1e-11 at seed 42)
        code = main(["oracle", "--lm", M1, "--seed", seed])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out

    def test_sticky_model_passes_all_checks(self, tmp_path, capsys):
        # rarely starts a string, but once started keeps going: the
        # enumeration must run on past the point where the alive mass
        # drops to tail_tol, since the contexts beyond it carry far more
        lm_path = tmp_path / "sticky.tsv"
        lm_path.write_text("^\ta\t0.01\n^\t$\t0.99\na\ta\t0.95\na\t$\t0.05\n")
        code = main(["oracle", "--lm", str(lm_path), "--seed", "3",
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        checks = json.loads((tmp_path / "out" / "oracle.json").read_text())["checks"]
        assert code == EXIT_OK, checks
        assert all(c["passed"] for c in checks)
        mass = next(c for c in checks if c["name"] == "context_mass")
        assert mass["details"]["uncovered_mass"] <= 1e-6
        assert -1e-12 <= mass["residual"] <= 1e-6
        # stopping on the alive mass 0.01 * 0.95^d alone (d = 180) would
        # leave out the contexts longer than 180: 0.2 * 0.95^180 / Z
        alive_only_depth = math.ceil(math.log(1e-4) / math.log(0.95))
        z = 1.0 + 0.01 / 0.05
        assert 0.2 * 0.95**alive_only_depth / z > 1.5e-5

    def test_passing_minimizer_residual_is_positive_zero(self, tmp_path, capsys):
        # a passing check has no shortfall below the minimizer, written 0.0
        code = main([
            "oracle", "--lm", M1, "--seed", "4", "--perturbations", "100",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        residual = next(
            c["residual"]
            for c in json.loads((tmp_path / "oracle.json").read_text())["checks"]
            if c["name"] == "minimizer_optimality"
        )
        assert residual == 0.0
        assert math.copysign(1.0, residual) == 1.0
        assert "PASS minimizer_optimality residual=0.000e+00" in out


class TestReport:
    def test_summarizes_and_writes_plot_csv(self, analyze_dir, capsys):
        code = main(["report", "--out", str(analyze_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "delta log-likelihood" in out
        lines = (analyze_dir / "plot_lmg.csv").read_text().splitlines()
        assert lines[0] == "model,group,mean_share,se_share"
        assert len(lines) == 1 + 9

    def test_missing_report_is_config_error(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_corrupt_report_is_format_error(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("{")
        code = main(["report", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "report.json" in err
        assert not (tmp_path / "plot_lmg.csv").exists()

    @pytest.mark.parametrize("report,key", [
        ({}, "n_rows"),
        ({"n_rows": 5, "folds": 2}, "models"),
        ({"n_rows": 5, "folds": 2, "models": [{"model": "m", "kind": "k"}]}, "delta_llh"),
    ])
    def test_report_without_its_keys_is_format_error(self, tmp_path, capsys, report, key):
        (tmp_path / "report.json").write_text(json.dumps(report))
        code = main(["report", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert f"{tmp_path / 'report.json'}: not an analyze report: no key {key!r}" in err
        assert out == ""
        assert not (tmp_path / "plot_lmg.csv").exists()

    def test_plot_share_is_the_stored_share(self, gen_dir, tmp_path, capsys):
        # the mean share is the one analyze stored; averaged again over ten
        # fold shares in another order, it differed in the last bit
        out = tmp_path / "analyze"
        assert main(["analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
                     "--out", str(out), "--seed", "9", "--folds", "10"]) == EXIT_OK
        assert main(["report", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        with open(out / "plot_lmg.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        blocks = [(m["model"], m["lmg"]) for m in report["models"] if m.get("lmg")]
        assert [(r["model"], r["group"], r["mean_share"]) for r in rows] == [
            (model, group, repr(share))
            for model, block in blocks
            for group, share in zip(block["groups"], block["shares"])
        ]
        ses = [
            statistics.stdev(fold[i] for fold in block["fold_shares"])
            / math.sqrt(len(block["fold_shares"]))
            for _, block in blocks for i in range(len(block["groups"]))
        ]
        assert [float(r["se_share"]) for r in rows] == pytest.approx(ses, rel=1e-12)

    @pytest.mark.parametrize("edit", [
        lambda lmg: lmg["groups"].append("extra"),
        lambda lmg: lmg["shares"].pop(),
        lambda lmg: lmg["fold_shares"][1].append(0.5),
        lambda lmg: lmg.update(fold_shares=lmg["fold_shares"][:1]),
    ], ids=["extra_group", "missing_share", "ragged_fold_shares", "one_fold"])
    def test_lmg_block_without_a_summary_is_format_error(
        self, analyze_dir, tmp_path, capsys, edit
    ):
        report = json.loads((analyze_dir / "report.json").read_text())
        edit(report["models"][0]["lmg"])
        (tmp_path / "report.json").write_text(json.dumps(report))
        code = main(["report", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "report.json: not an analyze report" in err
        assert out == ""
        assert not (tmp_path / "plot_lmg.csv").exists()

    def test_report_of_another_shape_is_format_error(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("[1, 2]")
        code = main(["report", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "report.json: not an analyze report" in err


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "analyze", "--lm", "/does/not/exist.tsv",
            "--corpus", "also_missing.tsv", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "missing.tsv" in err

    def test_coverage_failure(self, gen_dir, tmp_path, capsys):
        # m0's alphabet lacks the mixture model's multi-character units
        code = main([
            "analyze", "--lm", M0, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_COVERAGE
        assert "alphabet" in err

    def test_both_sources_rejected(self, gen_dir, tmp_path, capsys):
        code = main([
            "analyze", "--lm", MIXTURE, "--external", MIXTURE,
            "--corpus", str(gen_dir / "corpus.tsv"), "--out", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_identity_violation(self, gen_dir, tmp_path, capsys, monkeypatch):
        # no tolerance can be met, so the equivalence check refuses the run
        monkeypatch.setattr(regression, "FIT_TOL", -1.0)
        monkeypatch.setattr(regression, "COEF_TOL", -1.0)
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path), "--folds", "3",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_IDENTITY
        assert "identity violation: model-equivalence identities violated" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--lm", MIXTURE, "--out", "D"], "analyze needs --corpus"),
        (["gen", "--out", "D"], "gen needs --lm"),
        (["report"], "report needs --out"),
    ])
    def test_required_input_missing(self, capsys, argv, message):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err

    @pytest.mark.parametrize("argv, files, message", [
        (["analyze", "--lm", MIXTURE, "--corpus", "corpus.tsv", "--lambda-grid", "1,abc"], {},
         "bad lambda grid '1,abc'"),
        (["gen", "--lm", MIXTURE, "--coef", "surprisal"], {}, "expected NAME=VALUE"),
        (["gen", "--lm", MIXTURE, "--coef", "surprisal=abc"], {},
         "has non-numeric value 'abc'"),
        (["analyze", "--lm", MIXTURE, "--corpus", "corpus.tsv"],
         {"corpus.tsv": "\t".join(CORPUS_HEADER) + "\n"}, "corpus.tsv: corpus has no data rows"),
        (["oracle", "--lm", "m.tsv"], {"m.tsv": "^\ta\t1.5\n^\t$\t0.5\n"},
         "m.tsv:1: probability must be in (0, 1], got 1.5"),
        (["oracle", "--lm", "m.tsv"], {"m.tsv": "^\ta\t0.5\n^\t$\tnan\n"},
         "m.tsv:2: probability must be in (0, 1], got nan"),
        (["oracle", "--lm", "m.tsv"], {"m.tsv": "# a model\n# of no rows\n"},
         "m.tsv: no model rows found"),
    ], ids=[
        "lambda_grid", "coef_without_value", "coef_not_a_number", "corpus_header_only",
        "probability_above_one", "probability_nan", "model_comments_only",
    ])
    def test_bad_input_is_a_configuration_error(
        self, tmp_path, monkeypatch, capsys, argv, files, message
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = main(argv + ["--out", "out"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, message", [
        ("a\t$\t1.0\n", "model must define the start state"),
        ("^\ta\t0.5\n^\t$\t0.5\na\tb\t0.5\na\t$\t0.5\n",
         "transition ('a',) --'b'--> ('b',) has no defined state"),
        ("^\ta b\t0.5\n^\t$\t0.5\n", "unit 'a b' is empty or contains whitespace"),
        ("^\t^\t0.5\n^\t$\t0.5\n", "unit '^' collides with a reserved marker"),
    ], ids=["no_start_state", "undefined_state", "unit_with_space", "reserved_unit"])
    def test_model_errors_name_the_file(self, tmp_path, capsys, rows, message):
        lm_path = tmp_path / "model.tsv"
        lm_path.write_text(rows)
        code = main(["oracle", "--lm", str(lm_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == f"error: {lm_path}: {message}\n"

    def test_duplicate_participant_row(self, gen_dir, tmp_path, capsys):
        lines = (gen_dir / "corpus.tsv").read_text().splitlines()
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("\n".join(lines + [lines[3]]) + "\n")
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(corpus),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "more than one row" in err

    @pytest.mark.parametrize("grid", ["1,inf", "nan,1", "-1,1", "inf", "10,1"])
    def test_bad_lambda_grid(self, gen_dir, tmp_path, capsys, grid):
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path), "--smooth", f"--lambda-grid={grid}",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "lambda grid" in err
        # rejected with the other options, before any input is read, and
        # also without --smooth (the manifest would record it)
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "out"), f"--lambda-grid={grid}",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "lambda grid" in err and "missing.tsv" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sd", ["nan", "inf"])
    def test_non_finite_noise_sd(self, tmp_path, capsys, sd):
        code = main([
            "gen", "--lm", MIXTURE, "--out", str(tmp_path / "out"), "--seed", "1",
            "--n-docs", "3", "--doc-len", "10", f"--noise-sd={sd}",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "noise_sd" in err
        assert not (tmp_path / "out" / "corpus.tsv").exists()

    def test_token_idx_gap(self, gen_dir, tmp_path, capsys):
        lines = (gen_dir / "corpus.tsv").read_text().splitlines()
        corpus = tmp_path / "corpus.tsv"
        assert lines[4].split("\t")[1:4:2] == ["d0000", "3"]
        corpus.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(corpus),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "'d0000' skips from token_idx 2 to 4" in err

    def test_frequency_aliased_with_length(self, continuous_files, tmp_path, capsys):
        # an external frequency equal to the token length makes every
        # design singular; the fit names the columns that add nothing
        pred, corpus = continuous_files
        aliased = frequency_as_length(pred, tmp_path / "pred.tsv")
        code = main([
            "analyze", "--external", str(aliased), "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--seed", "3", "--folds", "3",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert "RankDeficiencyError" in err
        assert "near-dependent columns: length, prev_length" in err

    def test_refused_fold_names_itself_and_the_missing_type(self, tmp_path, capsys):
        # fold 1's training documents hold no 'cccc'; with two types left,
        # frequency and length are both functions of the unit and collinear
        gen = tmp_path / "gen"
        assert main([
            "gen", "--lm", MIXTURE, "--out", str(gen), "--seed", "7",
            "--n-docs", "10", "--doc-len", "40", "--noise-sd", "1.0",
        ]) == EXIT_OK
        capsys.readouterr()
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen / "corpus.tsv"),
            "--out", str(tmp_path / "out"), "--seed", "7",
            "--fold-by", "document", "--folds", "3",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert "RankDeficiencyError: fold 1, model surprisal:" in err
        assert "near-dependent columns: length, prev_length" in err
        assert "the fold's training rows hold no 'cccc'" in err
        observations, _ = parse_corpus(gen / "corpus.tsv")
        with pytest.raises(RankDeficiencyError) as exc:
            analyze_observations(
                load_lm_tsv(MIXTURE), observations, seed=7, folds=3, fold_by="document"
            )
        assert exc.value.columns == ["length", "prev_length"]

    def test_refused_fold_is_the_same_in_workers(self, tmp_path, capsys, monkeypatch):
        gen = tmp_path / "gen"
        assert main([
            "gen", "--lm", MIXTURE, "--out", str(gen), "--seed", "7",
            "--n-docs", "10", "--doc-len", "40", "--noise-sd", "1.0",
        ]) == EXIT_OK
        capsys.readouterr()
        observations, _ = parse_corpus(gen / "corpus.tsv")
        outcomes = []
        # smooth fits run the folds in the workers
        for workers in (1, 2):
            monkeypatch.setattr(pipeline, "_fold_workers", lambda folds: workers)
            code = main([
                "analyze", "--lm", MIXTURE, "--corpus", str(gen / "corpus.tsv"),
                "--out", str(tmp_path / f"out{workers}"), "--seed", "7",
                "--fold-by", "document", "--folds", "3", "--smooth",
            ])
            with pytest.raises(RankDeficiencyError) as exc:
                analyze_observations(
                    load_lm_tsv(MIXTURE), observations, seed=7, folds=3, fold_by="document",
                    smooth=True,
                )
            outcomes.append((code, capsys.readouterr().err, str(exc.value), exc.value.columns))
            assert not multiprocessing.active_children()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == EXIT_NUMERIC
        assert outcomes[0][3] == ["length", "prev_length"]

    def test_bad_swap_target(self, gen_dir, tmp_path, capsys):
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path), "--swap-ortho", "length",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "--swap-ortho: unsupported swap-ortho target 'length'" in err

    def test_bad_fold_count(self, gen_dir, tmp_path, capsys):
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path), "--folds", "1",
        ])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_corpus_not_utf8(self, gen_dir, tmp_path, capsys):
        lines = (gen_dir / "corpus.tsv").read_bytes().split(b"\n")
        fields = lines[3].split(b"\t")
        fields[5] = b"\xff" + fields[5]
        lines[3] = b"\t".join(fields)
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(b"\n".join(lines))
        code = main([
            "analyze", "--lm", MIXTURE, "--corpus", str(corpus),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{corpus}:4: not UTF-8: byte 0xff" in err

    def test_lm_not_utf8(self, gen_dir, tmp_path, capsys):
        lm = tmp_path / "lm.tsv"
        lm.write_bytes(b"# model \xff\n" + Path(MIXTURE).read_bytes())
        code = main([
            "analyze", "--lm", str(lm), "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{lm}:1: not UTF-8: byte 0xff" in err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seed=\xff\n")
        code = main([
            "gen", "--config", str(config), "--lm", MIXTURE, "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{config}:1: not UTF-8: byte 0xff" in err
        assert not (tmp_path / "out").exists()

    def test_external_file_not_utf8(self, gen_dir, tmp_path, capsys):
        external = tmp_path / "pred.tsv"
        external.write_bytes(
            b"doc_id\ttoken_idx\ttoken\tsurprisal\tfrequency\n"
            b"d0\t0\ta\t1.5\t2.5\nd0\t1\t\xff\t1.5\t2.5\n"
        )
        code = main([
            "analyze", "--external", str(external), "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{external}:3: not UTF-8: byte 0xff" in err

    def test_report_not_utf8(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(b'{\n  "n_rows": "\xff"\n}\n')
        code = main(["report", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{report}:2: not UTF-8: byte 0xff" in err
        assert not (tmp_path / "plot_lmg.csv").exists()


class TestConfigFile:
    def test_flags_beat_config(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("lm = %s\nseed = 42\nn_docs = 4\ndoc_len = 12\n" % M1)
        code = main([
            "gen", "--config", str(conf), "--out", str(tmp_path / "o"),
            "--seed", "7",
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 7          # flag wins
        assert manifest["config"]["n_docs"] == 4  # config survives

    def test_boolean_key_read_as_false(self, gen_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("smooth = off\n")
        code = main([
            "analyze", "--config", str(conf), "--lm", MIXTURE,
            "--corpus", str(gen_dir / "corpus.tsv"), "--out", str(tmp_path / "o"),
            "--folds", "3",
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["models"]
        assert not [m for m in report["models"] if m["model"].endswith("_smooth")]

    def test_boolean_key_not_a_boolean(self, gen_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("no_length = maybe\n")
        code = main([
            "analyze", "--config", str(conf), "--lm", MIXTURE,
            "--corpus", str(gen_dir / "corpus.tsv"), "--out", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "configuration key 'no_length'" in err

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("n_docs = 4\nspeed = 9\n")
        with pytest.raises(ConfigError, match="speed"):
            parse_config_file(str(conf))

    def test_comments_and_blanks_ignored(self, tmp_path):
        conf = tmp_path / "ok.conf"
        conf.write_text("# a comment\n\nseed = 3\n")
        assert parse_config_file(str(conf)) == {"seed": "3"}

    def test_duplicate_key_rejected(self, tmp_path):
        conf = tmp_path / "dup.conf"
        conf.write_text("seed = 3\nseed = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(str(conf))

    def test_malformed_line_rejected(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("seed: 3\n")
        code = main(["gen", "--config", str(conf), "--lm", M1, "--out", "x"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "key=value" in err


# the options each command reads, pinned here rather than read off the table
COMMAND_OPTIONS = {
    "gen": {"out", "lm", "seed", "n_docs", "doc_len", "participants", "noise_sd",
            "coeffs"},
    "analyze": {"out", "lm", "seed", "corpus", "external", "folds", "predictors",
                "no_length", "swap_ortho", "smooth", "lmg_grouping", "fold_by",
                "smooth_k", "lambda_grid"},
    "oracle": {"out", "lm", "seed", "max_len", "tail_tol", "perturbations"},
    "report": {"out"},
}

# a value other than the default for every option, as flag or file text
SAMPLE_TEXT = {
    "out": "elsewhere", "lm": M0, "seed": "5", "n_docs": "3", "doc_len": "7",
    "participants": "2", "noise_sd": "2.5", "coeffs": "surprisal=4",
    "corpus": "c.tsv", "external": "e.tsv", "folds": "4", "predictors": "pmi,ortho",
    "no_length": "true", "swap_ortho": "frequency", "smooth": "true",
    "lmg_grouping": "separate", "fold_by": "document", "smooth_k": "5",
    "lambda_grid": "0.5,2", "max_len": "64", "tail_tol": "1e-5", "perturbations": "7",
}

# the inputs each command needs, as flags
BASE_ARGV = {
    "gen": ["gen", "--lm", M1, "--out", "o"],
    "analyze": ["analyze", "--lm", M1, "--corpus", "c", "--out", "o"],
    "oracle": ["oracle", "--lm", M1],
    "report": ["report", "--out", "o"],
}


def _resolved(argv):
    return vars(resolve_config(build_parser().parse_args(argv)))


def _without(argv, flag):
    if flag not in argv:
        return list(argv)
    at = argv.index(flag)
    return argv[:at] + argv[at + 2:]


class TestOptionTable:
    @pytest.mark.parametrize("command,name", [
        (command, name)
        for command, names in COMMAND_OPTIONS.items() for name in sorted(names)
    ])
    def test_flag_and_file_resolve_alike(self, command, name, tmp_path):
        base = _without(BASE_ARGV[command], OPTIONS[name].flag)
        if name == "external":
            base = _without(base, "--lm")
        text = SAMPLE_TEXT[name]
        flag = [OPTIONS[name].flag] + ([] if text == "true" else [text])
        conf = tmp_path / "run.conf"
        conf.write_text((f"coef.{text}" if name == "coeffs" else f"{name}={text}") + "\n")
        by_flag = _resolved(base + flag)
        assert by_flag == _resolved(base + ["--config", str(conf)])
        assert by_flag[name] != OPTIONS[name].default

    @pytest.mark.parametrize("command,name", [
        (command, name)
        for command, names in COMMAND_OPTIONS.items()
        for name in sorted(OPTIONS.keys() - names)
    ])
    def test_flag_of_another_command_rejected(self, command, name, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                BASE_ARGV[command] + [OPTIONS[name].flag, SAMPLE_TEXT[name]]
            )
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name,text,value", [
        ("seed", "-1", -1), ("predictors", "bogus", ("bogus",)),
        ("swap_ortho", "bogus", "bogus"), ("lmg_grouping", "bogus", "bogus"),
        ("fold_by", "bogus", "bogus"),
    ])
    def test_flag_and_library_share_one_check(self, name, text, value, gen_dir):
        with pytest.raises(ConfigError) as by_flag:
            resolve_config(build_parser().parse_args(
                BASE_ARGV["analyze"] + [OPTIONS[name].flag, text]
            ))
        observations, _ = parse_corpus(gen_dir / "corpus.tsv")
        options = {"seed": 0, "folds": 3, name: value}
        with pytest.raises(ConfigError) as by_library:
            analyze_observations(load_lm_tsv(MIXTURE), observations, **options)
        assert str(by_flag.value) == f"{OPTIONS[name].flag}: {by_library.value}"

    def test_library_defaults_are_the_library_values(self, capsys):
        # the table quotes the values the library runs with
        resolved = _resolved(BASE_ARGV["analyze"])
        assert resolved["predictors"] == pipeline.MODEL_KINDS
        assert resolved["smooth_k"] == smooth.DEFAULT_KNOTS
        oracle = _resolved(BASE_ARGV["oracle"])
        budget = EnumerationBudget()
        assert (oracle["max_len"], oracle["tail_tol"]) == (budget.max_len, budget.tail_tol)
        assert [v.hex() for v in resolved["lambda_grid"]] == [
            v.hex() for v in smooth.LAMBDA_GRID
        ]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "comma-separated subset of: " + ",".join(pipeline.MODEL_KINDS) in help_text
        assert f"spline basis size (default {smooth.DEFAULT_KNOTS})" in help_text

    def test_manifest_config_holds_the_command_options(
        self, gen_dir, analyze_dir, tmp_path, capsys
    ):
        assert main(["oracle", "--lm", M0, "--perturbations", "5",
                     "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        for command, out in (("gen", gen_dir), ("analyze", analyze_dir),
                             ("oracle", tmp_path)):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["command"] == command
            assert set(manifest["config"]) == COMMAND_OPTIONS[command] - {"out"}

    def test_manifest_versions_stay_out_of_config_hash(self, gen_dir):
        from importlib.metadata import version

        import ctxpred

        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["versions"] == {
            "ctxpred": ctxpred.__version__,
            "numpy": np.__version__,
            "scipy": version("scipy"),
        }
        # the input path is listed but left out of the hash
        assert manifest["config"]["lm"] == MIXTURE
        hashed = {k: v for k, v in manifest["config"].items() if k != "lm"}
        digest = hashlib.sha256(
            json.dumps(hashed, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert manifest["config_sha256"] == digest

    def test_config_hash_ignores_how_the_input_path_is_typed(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(FIXTURES.parent)
        hashes = []
        for lm in ("fixtures/m0.tsv", M0):
            out = tmp_path / f"gen{len(hashes)}"
            assert main(["gen", "--lm", lm, "--out", str(out), "--n-docs", "2",
                         "--doc-len", "5"]) == EXIT_OK
            hashes.append(json.loads((out / "manifest.json").read_text())["config_sha256"])
        capsys.readouterr()
        assert hashes[0] == hashes[1]

    def test_config_file_shared_by_gen_and_analyze(self, tmp_path, capsys):
        # each command takes its own keys and ignores the others' keys
        conf = tmp_path / "shared.conf"
        conf.write_text(
            f"lm = {MIXTURE}\nseed = 3\nn_docs = 6\ndoc_len = 30\n"
            "folds = 3\nfold_by = document\nmax_len = 64\n"
        )
        gen, an = tmp_path / "gen", tmp_path / "an"
        assert main(["gen", "--config", str(conf), "--out", str(gen)]) == EXIT_OK
        assert main(["analyze", "--config", str(conf), "--out", str(an),
                     "--corpus", str(gen / "corpus.tsv")]) == EXIT_OK
        capsys.readouterr()
        gen_config = json.loads((gen / "manifest.json").read_text())["config"]
        an_config = json.loads((an / "manifest.json").read_text())["config"]
        assert gen_config["n_docs"] == 6 and an_config["folds"] == 3
        assert an_config["fold_by"] == "document"
        assert set(gen_config) == COMMAND_OPTIONS["gen"] - {"out"}
        assert set(an_config) == COMMAND_OPTIONS["analyze"] - {"out"}

    @pytest.mark.parametrize("command,key", [
        ("gen", "seed"), ("gen", "n_docs"), ("gen", "doc_len"),
        ("gen", "participants"), ("gen", "noise_sd"), ("analyze", "folds"),
        ("analyze", "smooth_k"), ("oracle", "max_len"), ("oracle", "tail_tol"),
        ("oracle", "perturbations"),
    ])
    def test_non_numeric_config_value(self, command, key, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = abc\n")
        argv = _without(BASE_ARGV[command], "--out") + ["--out", str(tmp_path / "o")]
        code = main(argv + ["--config", str(conf)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"configuration key {key!r}" in err

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--lm", M1, "--participants", "0"], "--participants: must be at least 1"),
        (["oracle", "--lm", M0, "--perturbations", "-1"], "--perturbations: must be at least 1"),
        (["oracle", "--lm", M0, "--perturbations", "0"], "--perturbations: must be at least 1"),
        (["analyze", "--lm", MIXTURE, "--corpus", "{corpus}", "--smooth", "--smooth-k", "2"],
         "--smooth-k: must be at least 3"),
        # the counts are refused before the model is loaded
        (["gen", "--lm", "missing.tsv", "--n-docs", "0"], "--n-docs: must be at least 1"),
        (["gen", "--lm", "missing.tsv", "--doc-len", "0"], "--doc-len: must be at least 1"),
    ])
    def test_out_of_range_count(self, argv, message, gen_dir, tmp_path, capsys):
        corpus = str(gen_dir / "corpus.tsv")
        argv = [a.format(corpus=corpus) for a in argv] + ["--out", str(tmp_path / "o")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("argv,message", [
        (["oracle", "--lm", "missing.tsv", "--max-len", "0"],
         "--max-len: max_len must be >= 1, got 0"),
        (["gen", "--lm", "missing.tsv", "--noise-sd", "-1"],
         "--noise-sd: noise_sd must be finite and >= 0, got -1.0"),
        (["oracle", "--lm", M1, "--tail-tol", "1"],
         "--tail-tol: tail_tol must lie in (0, 1e-3], got 1.0"),
    ])
    def test_library_bounds_checked_with_the_options(self, argv, message, tmp_path, capsys):
        # the bounds the library checks are those of the option table:
        # refused behind their flag, before any input is read
        code = main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err and "missing.tsv" not in err
        assert not (tmp_path / "o").exists()


def test_import_leaves_out_spline_interpolation():
    # scipy.interpolate is the slowest import of the package; only smooth
    # fits need it, so importing the command line must not load it
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ctxpred.cli; print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_smooth_analysis_leaves_out_spline_interpolation(gen_dir, tmp_path):
    # the spline basis and the penalized solves are computed in numpy, so
    # a smooth analysis loads no scipy module at all; on one CPU the folds
    # run in this process, where a forked worker's imports would be seen
    import subprocess
    import sys

    argv = ["analyze", "--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"),
            "--out", str(tmp_path), "--smooth", "--folds", "3"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
         "from ctxpred.cli import main; code = main(sys.argv[1:]); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
         "sys.exit(code)", *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").exists()


def test_import_leaves_out_scipy_linalg():
    # the package runs on numpy alone, so importing the command line must
    # not load scipy.linalg
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ctxpred.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# prints, as JSON, the modules loaded when the command given as arguments returns
MODULES_AFTER = (
    "import json, sys\n"
    "from ctxpred.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


# the same, once the options of the command given as arguments are resolved
MODULES_AFTER_RESOLVING = (
    "import json, sys\n"
    "from ctxpred.cli import build_parser, resolve_config\n"
    "resolve_config(build_parser().parse_args(sys.argv[1:]))\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)
REGRESSION_STACK = {"ctxpred.pipeline", "ctxpred.regression", "ctxpred.smooth"}


def _modules_after(argv, script=MODULES_AFTER, exit_code=EXIT_OK):
    """The modules a fresh process has loaded once ``script`` has run on
    ARGV and exited with ``exit_code``."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True
    )
    assert proc.returncode == exit_code, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _package_of(modules, name):
    return {m for m in modules if m == name or m.startswith(name + ".")}


def test_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; import ctxpred; print('numpy' in sys.modules); "
         "import ctxpred.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_report_loads_no_numpy(analyze_dir, tmp_path):
    (tmp_path / "report.json").write_bytes((analyze_dir / "report.json").read_bytes())
    modules = _modules_after(["report", "--out", str(tmp_path)])
    assert "ctxpred.files" in modules
    assert _package_of(modules, "numpy") == set()
    assert (tmp_path / "plot_lmg.csv").exists()


@pytest.mark.parametrize("command", sorted(BASE_ARGV))
def test_option_resolution_loads_no_numpy(command):
    # every option's default and check is in the command line's own modules
    argv = BASE_ARGV[command] + ([] if command == "report" else ["--seed", "5"])
    modules = _modules_after(argv, MODULES_AFTER_RESOLVING)
    assert _package_of(modules, "numpy") == set()
    assert _package_of(modules, "ctxpred") == {
        "ctxpred", "ctxpred.choices", "ctxpred.cli", "ctxpred.errors", "ctxpred.files",
    }


def test_refused_analysis_loads_no_scipy(continuous_files, tmp_path):
    # a refused fit names its culprits from its own triangle, in numpy
    pred, corpus = continuous_files
    aliased = frequency_as_length(pred, tmp_path / "pred.tsv")
    argv = ["analyze", "--external", str(aliased), "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--folds", "3"]
    proc = subprocess.run([sys.executable, "-c", MODULES_AFTER, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert "near-dependent columns: length, prev_length" in proc.stderr
    modules = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "ctxpred.regression" in modules and _package_of(modules, "scipy") == set()


@pytest.mark.parametrize("argv", [
    ["gen", "--lm", MIXTURE, "--n-docs", "3", "--doc-len", "10"],
    ["oracle", "--lm", M1, "--perturbations", "10"],
])
def test_gen_and_oracle_load_no_regression_stack(argv, tmp_path):
    modules = _modules_after(argv + ["--out", str(tmp_path)])
    assert "ctxpred.lm" in modules
    assert modules & REGRESSION_STACK == set()


def test_oracle_loads_no_corpus_code(tmp_path):
    # the exact-mode variables live in hilbert, beside the measure
    modules = _modules_after(["oracle", "--lm", M1, "--perturbations", "10",
                              "--out", str(tmp_path)])
    assert "ctxpred.hilbert" in modules
    assert modules & {"ctxpred.corpus", "ctxpred.predictors"} == set()


@pytest.mark.parametrize(
    "command", ["gen", "analyze", "analyze --smooth", "analyze refused", "oracle"]
)
def test_commands_load_no_masked_arrays(command, gen_dir, tmp_path):
    # np.unique without a return_* flag loads numpy.ma, and np.quantile
    # and np.setdiff1d call it; on one CPU a smooth analysis runs its
    # folds in this process
    corpus = ["--lm", MIXTURE, "--corpus", str(gen_dir / "corpus.tsv"), "--folds", "3"]
    argv = {
        "gen": ["gen", "--lm", MIXTURE, "--n-docs", "3", "--doc-len", "10"],
        "analyze": ["analyze", *corpus],
        "analyze --smooth": ["analyze", *corpus, "--smooth"],
        "oracle": ["oracle", "--lm", M1, "--perturbations", "10"],
    }.get(command)
    exit_code = EXIT_OK
    if command == "analyze refused":
        # fold 1's training documents hold no 'cccc', and the refusal's
        # note names the types they lack
        gen = tmp_path / "gen"
        assert main([
            "gen", "--lm", MIXTURE, "--out", str(gen), "--seed", "7",
            "--n-docs", "10", "--doc-len", "40", "--noise-sd", "1.0",
        ]) == EXIT_OK
        argv = ["analyze", "--lm", MIXTURE, "--corpus", str(gen / "corpus.tsv"),
                "--seed", "7", "--fold-by", "document", "--folds", "3"]
        exit_code = EXIT_NUMERIC
    one_cpu = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    modules = _modules_after(
        argv + ["--out", str(tmp_path)], one_cpu + MODULES_AFTER, exit_code=exit_code
    )
    assert "ctxpred.smooth" in modules if command == "analyze --smooth" else "ctxpred.lm" in modules
    assert _package_of(modules, "numpy.ma") == set()


def test_gen_reads_the_scipy_version_without_importing(tmp_path):
    # the manifest's scipy version comes from the installed metadata,
    # without scipy or importlib.metadata, whose import is the slower part
    modules = _modules_after(
        ["gen", "--lm", MIXTURE, "--n-docs", "3", "--doc-len", "10", "--out", str(tmp_path)]
    )
    assert json.loads((tmp_path / "manifest.json").read_text())["versions"]["scipy"]
    assert _package_of(modules, "scipy") == set()
    assert "importlib.metadata" not in modules


def test_installed_version_reads_the_first_metadata_on_the_path(tmp_path, monkeypatch):
    from ctxpred.cli import installed_version

    for root, version in (("a", "1.2"), ("b", "9.9")):
        info = tmp_path / root / f"Foo-{version}.dist-info"
        info.mkdir(parents=True)
        (info / "METADATA").write_text(
            f"Metadata-Version: 2.1\nName: Foo\nVersion: {version}\n\nVersion: 0 in the body\n"
        )
    (tmp_path / "a" / "foobar-3.0.dist-info").mkdir()
    monkeypatch.setattr(sys, "path", [str(tmp_path / "missing"), str(tmp_path / "a"),
                                      str(tmp_path / "b")])
    assert installed_version("foo") == "1.2"
    assert installed_version("foobar") is None


def test_star_import_binds_the_public_api():
    assert len(ctxpred.__all__) == len(set(ctxpred.__all__)) == 69
    namespace: dict = {}
    exec("from ctxpred import *", namespace)
    assert set(ctxpred.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ctxpred, name) for name in ctxpred.__all__)
    assert set(ctxpred.__all__) <= set(dir(ctxpred))
    assert ctxpred.pipeline is pipeline
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        ctxpred.not_a_name


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ctxpred.cli", "oracle", "--lm", M1,
         "--perturbations", "20", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 3
