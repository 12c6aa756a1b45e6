"""The benchmark's workloads: seeded inputs, command sequences, output checks.

A workload is a list of ``ctxpred`` commands run in order.  Every command
is one op; every check that ``oracle`` reports is one more op.  An op
fails when its exit code is not 0 or a check on its output does not
hold.  A check that finds a wrong number (rather than a refusal with a
documented exit code) also marks the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import statistics
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# the generating model of ``ctxpred gen`` when no --coef is given
GEN_TRUTH = {"intercept": 200.0, "surprisal": 10.0, "frequency": 6.0, "length": 2.0}
# the generating model of the benchmark's external predictor corpus
EXTERNAL_TRUTH = {"intercept": 200.0, "surprisal": 10.0, "frequency": 6.0, "length": 2.0}
EXTERNAL_NOISE_SD = 10.0
# word-length shares for 1..12 letters, skewed like running text; every
# boundary of the cumulative shares is at least 0.02 away from the
# 0.2/0.4/0.6/0.8 quantiles, so six quantile knots on length (and its
# spillover copy) stay distinct for any seed at the stated size
LENGTH_SHARES = (0.04, 0.12, 0.16, 0.16, 0.14, 0.11, 0.09, 0.07, 0.05, 0.03, 0.02, 0.01)

# documented tolerances of regression.equivalence_report (fit_tol, coef_tol)
EQUIVALENCE_TOLERANCES = {
    "r2": 1e-10,
    "prediction": 1e-10,
    "beta_pmi_vs_neg_surprisal": 1e-8,
    "beta_frequency_shift": 1e-8,
}
# AC09 accepts |z| < 3 for one fixed seed; over the many seeds a benchmark
# draws, 3 would flag about 2% of correct runs, 5 about one in 10^5
RECOVERY_Z = 5.0
# oracle checks whose residual may be slightly negative (mass identities)
SIGNED_RESIDUALS = {"context_mass": -1e-12}

SIZES = {
    "full": {
        "large": (200, 250, 3),
        "external": (100, 250),
        "probe": (20, 100),
        "perturbations": None,
    },
    # for the benchmark's own smoke test
    "tiny": {
        "large": (6, 40, 2),
        "external": (6, 60),
        "probe": (4, 30),
        "perturbations": 3,
    },
}


@dataclass
class Tally:
    """Ops attempted and failed, and what went wrong with each failed op."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)

    def op(self, label: str, problems: list[str], wrong: list[str] = ()) -> None:
        self.attempted += 1
        if problems or wrong:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in [*problems, *wrong])
        if wrong:
            self.correct = False


@dataclass
class Command:
    label: str
    argv: list[str]
    # output directory; every one of a workload is cleared before each run
    out: Path
    # check(command, exit code, tally) -> (problems, wrong numbers)
    check: Callable[["Command", int, Tally], tuple[list[str], list[str]]]
    # files whose bytes must not change between runs of one seed
    digest_files: tuple[str, ...] = ()
    # what the check compares against: gen sizes, or a function giving
    # the generating coefficients of an analyzed corpus
    expect: object = None


# -- checks -------------------------------------------------------------------


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _recovery_problems(report: dict, truth: dict) -> list[str]:
    model = next(m for m in report["models"] if m["model"] == "surprisal")
    pooled = model["pooled_raw"]
    out = []
    for label, estimate in pooled["coeffs"].items():
        z = abs(estimate - truth.get(label, 0.0)) / pooled["std_errors"][label]
        if not z < RECOVERY_Z:
            out.append(f"pooled {label} = {estimate!r} is {z:.2f} SE from the truth")
    return out


def _analyze_wrong(report: dict, truth: dict) -> list[str]:
    wrong = []
    for key, tol in EQUIVALENCE_TOLERANCES.items():
        delta = report["equivalence"]["deltas"][key]
        if not delta <= tol:
            wrong.append(f"equivalence delta {key} = {delta!r} exceeds {tol:g}")
    wrong += _recovery_problems(report, truth)
    for model in report["models"]:
        if not model["delta_llh"]["mean"] > 0.0:
            wrong.append(f"model {model['model']} has no held-out gain")
    return wrong


def check_gen(cmd: Command, code: int, tally: Tally):
    if code != 0:
        return [f"exit {code}"], []
    sidecar = _load_json(cmd.out / "sidecar.json")
    n_docs, doc_len, participants = cmd.expect
    with open(cmd.out / "corpus.tsv", encoding="utf-8") as handle:
        rows = sum(1 for _ in handle) - 1
    wrong = []
    if sidecar["true_coeffs"] != GEN_TRUTH:
        wrong.append(f"sidecar coefficients {sidecar['true_coeffs']} differ from the defaults")
    if rows < n_docs * doc_len * participants or rows % participants:
        wrong.append(f"{rows} corpus rows for {n_docs}x{doc_len}x{participants}")
    return [], wrong


def check_analyze(cmd: Command, code: int, tally: Tally):
    if code != 0:
        return [f"exit {code}"], []
    return [], _analyze_wrong(_load_json(cmd.out / "report.json"), cmd.expect())


def check_report(cmd: Command, code: int, tally: Tally):
    if code != 0:
        return [f"exit {code}"], []
    report = _load_json(cmd.out / "report.json")
    with open(cmd.out / "plot_lmg.csv", encoding="utf-8", newline="") as handle:
        rows = {(r["model"], r["group"]): float(r["mean_share"]) for r in csv.DictReader(handle)}
    wrong = []
    for model in report["models"]:
        block = model.get("lmg")
        if not block:
            continue
        for index, group in enumerate(block["groups"]):
            want = statistics.fmean(row[index] for row in block["fold_shares"])
            got = rows.get((model["model"], group))
            if got is None or not abs(got - want) <= 1e-12:
                wrong.append(f"plot share {model['model']}/{group} = {got!r}, expected {want!r}")
    return [], wrong


def check_oracle(cmd: Command, code: int, tally: Tally):
    path = cmd.out / "oracle.json"
    if not path.exists():
        return [f"exit {code} without oracle.json"], []
    payload = _load_json(path)
    for check in payload["checks"]:
        residual, tol = check["residual"], check["tolerance"]
        problems, wrong = [], []
        if residual is None:
            problems.append(f"not computed: {check['details'].get('error')}")
        else:
            within = SIGNED_RESIDUALS.get(check["name"], -math.inf) <= residual <= tol
            if not within:
                problems.append(f"residual {residual!r} outside tolerance {tol!r}")
            if check["passed"] != within:
                wrong.append(f"reported passed={check['passed']} for residual {residual!r}")
        tally.op(f"{cmd.label}:{check['name']}", problems, wrong)
    if (code == 0) != payload["all_passed"]:
        return [], [f"exit {code} does not match all_passed={payload['all_passed']}"]
    return ([f"exit {code}"] if code != 0 else []), []


# -- inputs -------------------------------------------------------------------


def write_external_inputs(directory: Path, seed: int, n_docs: int, doc_len: int) -> None:
    """Corpus and external predictor table with continuous predictors.

    Frequency rises with word length and surprisal with frequency, as in
    text, so the orthogonalized model does real work; reading times
    follow EXTERNAL_TRUTH plus Gaussian noise.
    """
    rng = random.Random(f"external:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    lengths = range(1, len(LENGTH_SHARES) + 1)
    corpus = ["participant\tdoc_id\tsentence_id\ttoken_idx\ttoken\trt_ms\tskipped\n"]
    table = ["doc_id\ttoken_idx\ttoken\tsurprisal\tfrequency\n"]
    for d in range(n_docs):
        doc_id = f"d{d:04d}"
        sentence_id, left_in_sentence = 0, rng.randint(5, 20)
        for token_idx in range(doc_len):
            if left_in_sentence == 0:
                sentence_id, left_in_sentence = sentence_id + 1, rng.randint(5, 20)
            left_in_sentence -= 1
            length = rng.choices(lengths, weights=LENGTH_SHARES)[0]
            token = "".join(rng.choices(string.ascii_lowercase, k=length))
            freq = 2.0 + 0.7 * length + rng.gammavariate(2.0, 1.0)
            surp = 0.5 * freq + rng.gammavariate(2.0, 1.5)
            rt = (
                EXTERNAL_TRUTH["intercept"]
                + EXTERNAL_TRUTH["surprisal"] * surp
                + EXTERNAL_TRUTH["frequency"] * freq
                + EXTERNAL_TRUTH["length"] * length
                + rng.gauss(0.0, EXTERNAL_NOISE_SD)
            )
            corpus.append(f"p00\t{doc_id}\t{sentence_id}\t{token_idx}\t{token}\t{rt!r}\t0\n")
            table.append(f"{doc_id}\t{token_idx}\t{token}\t{surp!r}\t{freq!r}\n")
    (directory / "corpus.tsv").write_text("".join(corpus), encoding="utf-8")
    (directory / "predictors.tsv").write_text("".join(table), encoding="utf-8")


def _sidecar_truth(gen_dir: Path):
    return lambda: _load_json(gen_dir / "sidecar.json")["true_coeffs"]


def build(name: str, seed: int, root: Path, work: Path, size: str = "full") -> list[Command]:
    """The workload's commands (argv after ``ctxpred``), in order.

    Inputs that the benchmark writes itself are written here.
    """
    sizes = SIZES[size]
    fixtures = root / "fixtures"
    mixture = str(fixtures / "mixture.tsv")
    commands: list[Command] = []

    def gen(label: str, out: Path, n_docs: int, doc_len: int, participants: int = 1) -> None:
        argv = ["gen", "--lm", mixture, "--out", str(out), "--seed", str(seed),
                "--n-docs", str(n_docs), "--doc-len", str(doc_len)]
        if participants != 1:
            argv += ["--participants", str(participants)]
        commands.append(Command(label, argv, out, check_gen, ("corpus.tsv", "sidecar.json"),
                                (n_docs, doc_len, participants)))

    def analyze(label: str, out: Path, extra: list[str], truth) -> None:
        argv = ["analyze", *extra, "--out", str(out), "--seed", str(seed)]
        commands.append(Command(label, argv, out, check_analyze, ("report.json", "lmg.csv"), truth))

    if name == "corpus_large":
        # The paper's pipeline at the stated size (~150k observations,
        # ~50k aggregated rows, paired grouping, 10 folds): generation,
        # parsing, aggregation and LM scoring dominate, regression is
        # light.  Exercises the columnar-table and scoring work.
        gen_dir = work / "gen"
        gen("gen", gen_dir, *sizes["large"])
        analyze("analyze", work / "analyze",
                ["--lm", mixture, "--corpus", str(gen_dir / "corpus.tsv")],
                _sidecar_truth(gen_dir))
        commands.append(Command("report", ["report", "--out", str(work / "analyze")],
                                work / "analyze", check_report, ("plot_lmg.csv",)))
    elif name == "external_smooth":
        # Continuous external predictors joined by key instead of LM
        # scoring: the variance decomposition over 2^6 subsets
        # (separate grouping) and the spline fits dominate, the corpus
        # layer is light.  The small mixture run with --smooth is the
        # D2 probe (quantile knots collide on discrete predictors); it
        # counts as a failed op while that defect stands.
        ext_dir = work / "external"
        write_external_inputs(ext_dir, seed, *sizes["external"])
        analyze("analyze_external", work / "analyze_external",
                ["--external", str(ext_dir / "predictors.tsv"),
                 "--corpus", str(ext_dir / "corpus.tsv"),
                 "--smooth", "--lmg-grouping", "separate"],
                lambda: EXTERNAL_TRUTH)
        small_dir = work / "gen_small"
        gen("gen_small", small_dir, *sizes["probe"])
        analyze("analyze_smooth_probe", work / "analyze_small",
                ["--lm", mixture, "--corpus", str(small_dir / "corpus.tsv"), "--smooth"],
                _sidecar_truth(small_dir))
    elif name == "oracle_fixtures":
        # The exact self-checks at their defaults: 3000 truncated-KL
        # enumerations (lm layer) and the context-trie measure, which
        # builds 3.1M rows on m0 (hilbert layer, peak memory); mixture's
        # two enumeration checks fail while D3 stands and count as
        # failed ops.  Corpus, regression and smooth do no work here.
        for model in ("m0", "m1", "mixture"):
            out = work / f"oracle_{model}"
            argv = ["oracle", "--lm", str(fixtures / f"{model}.tsv"),
                    "--out", str(out), "--seed", str(seed)]
            if sizes["perturbations"] is not None:
                argv += ["--perturbations", str(sizes["perturbations"])]
            commands.append(Command(f"oracle_{model}", argv, out, check_oracle, ("oracle.json",)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return commands


WORKLOADS = ("corpus_large", "external_smooth", "oracle_fixtures")


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
