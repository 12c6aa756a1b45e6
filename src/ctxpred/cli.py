"""Command-line surface: gen / analyze / oracle / report.

Configuration comes from an optional plain-text ``key=value`` file plus
command-line flags; flags win.  Every run writes a ``manifest.json``
recording the resolved configuration, its hash, and SHA-256 digests of
all inputs and outputs — no timestamps, so identical runs produce
byte-identical artifacts.  Output files are written atomically
(temporary file, then rename).

Exit codes: 0 success; 2 configuration/IO problems; 3 violated model
identity; 4 predictor coverage gaps; 5 numerical failures (divergence,
rank deficiency, conditioning, and similar).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import generate_synthetic, parse_corpus, write_corpus_tsv
from .errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    CtxpredError,
    DegenerateError,
    FormatError,
    IdentityError,
)
from .hilbert import MeasureTable, inner_product, project_complement
from .lm import (
    EnumerationBudget,
    load_lm_tsv,
    prefix_normalizer,
    truncated_string_moments,
    unigram_log_probs,
    unigram_minimizer,
)
from .pipeline import MODEL_KINDS, analyze_observations
from .predictors import frequency_variable, parse_external_tsv, surprisal_variable
from .seeding import check_seed, named_rng
from .smooth import DEFAULT_KNOTS, LAMBDA_GRID

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IDENTITY = 3
EXIT_COVERAGE = 4
EXIT_NUMERIC = 5

DEFAULT_COEFFS = {
    "intercept": 200.0,
    "surprisal": 10.0,
    "frequency": 6.0,
    "length": 2.0,
}


@dataclass
class RunConfig:
    command: str
    lm: str | None = None
    external: str | None = None
    corpus: str | None = None
    out: str | None = None
    seed: int = 0
    folds: int = 10
    predictors: tuple[str, ...] = MODEL_KINDS
    no_length: bool = False
    swap_ortho: str | None = None
    smooth: bool = False
    lmg_grouping: str = "paired"
    fold_by: str = "token"
    max_len: int = 256
    tail_tol: float = 1e-6
    smooth_k: int = DEFAULT_KNOTS
    lambda_grid: tuple[float, ...] = LAMBDA_GRID
    n_docs: int = 50
    doc_len: int = 100
    participants: int = 1
    noise_sd: float = 10.0
    perturbations: int = 1000
    coeffs: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_COEFFS))

    def as_manifest_dict(self) -> dict:
        config = asdict(self)
        del config["out"]
        return config


# keys a configuration file may set (coefficients come as coef.NAME keys)
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command", "coeffs"}


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not (key in _CONFIG_KEYS or key.startswith("coef.")):
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _to_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"configuration key {key!r} expects a boolean, got {value!r}")


def _parse_predictors(value: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in value.split(",") if p.strip())
    if not parts:
        raise ConfigError("predictor selection is empty")
    for p in parts:
        if p not in MODEL_KINDS:
            raise ConfigError(
                f"unknown predictor set {p!r}; choose from {', '.join(MODEL_KINDS)}"
            )
    if len(set(parts)) != len(parts):
        raise ConfigError("duplicate entries in predictor selection")
    return parts


def _parse_lambda_grid(value: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(v) for v in value.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid {value!r}: {exc}") from None
    if not grid:
        raise ConfigError("lambda grid is empty")
    if not all(math.isfinite(v) and v >= 0.0 for v in grid):
        raise ConfigError(f"lambda grid must be finite and nonnegative, got {value!r}")
    return grid


def _parse_coef_item(item: str) -> tuple[str, float]:
    if "=" not in item:
        raise ConfigError(f"expected NAME=VALUE for a coefficient, got {item!r}")
    name, _, raw = item.partition("=")
    try:
        return name.strip(), float(raw)
    except ValueError:
        raise ConfigError(f"coefficient {name!r} has non-numeric value {raw!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = parse_config_file(args.config)

    cfg = RunConfig(command=args.command)

    def pick(key: str, flag_value, convert):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return convert(file_values[key])
        return getattr(cfg, key)

    cfg.lm = pick("lm", args.lm, str)
    cfg.out = pick("out", args.out, str)
    cfg.seed = check_seed(pick("seed", args.seed, int))
    cfg.max_len = int(pick("max_len", getattr(args, "max_len", None), int))
    cfg.tail_tol = float(pick("tail_tol", getattr(args, "tail_tol", None), float))
    if args.command == "analyze":
        cfg.external = pick("external", args.external, str)
        cfg.corpus = pick("corpus", args.corpus, str)
        cfg.folds = int(pick("folds", args.folds, int))
        cfg.predictors = pick("predictors", args.predictors, _parse_predictors)
        cfg.no_length = pick(
            "no_length", args.no_length, lambda v: _to_bool(v, "no_length")
        )
        cfg.swap_ortho = pick("swap_ortho", args.swap_ortho, str)
        cfg.smooth = pick("smooth", args.smooth, lambda v: _to_bool(v, "smooth"))
        cfg.lmg_grouping = pick("lmg_grouping", args.lmg_grouping, str)
        cfg.fold_by = pick("fold_by", args.fold_by, str)
        cfg.smooth_k = int(pick("smooth_k", args.smooth_k, int))
        cfg.lambda_grid = pick("lambda_grid", args.lambda_grid, _parse_lambda_grid)
        if cfg.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {cfg.folds}")
        if cfg.swap_ortho not in (None, "frequency"):
            raise ConfigError(
                f"swap-ortho target must be 'frequency', got {cfg.swap_ortho!r}"
            )
        if cfg.lmg_grouping not in ("paired", "separate"):
            raise ConfigError(
                f"lmg grouping must be 'paired' or 'separate', got {cfg.lmg_grouping!r}"
            )
        if cfg.fold_by not in ("token", "document"):
            raise ConfigError(
                f"fold-by must be 'token' or 'document', got {cfg.fold_by!r}"
            )
        if (cfg.lm is None) == (cfg.external is None):
            raise ConfigError(
                "analyze needs exactly one predictor source: --lm or --external"
            )
        if cfg.corpus is None:
            raise ConfigError("analyze needs --corpus")
    if args.command == "gen":
        cfg.n_docs = int(pick("n_docs", args.n_docs, int))
        cfg.doc_len = int(pick("doc_len", args.doc_len, int))
        cfg.participants = int(pick("participants", args.participants, int))
        cfg.noise_sd = float(pick("noise_sd", args.noise_sd, float))
        # coefficients given anywhere replace the default set; flags win
        items = [
            f"{key[len('coef.'):]}={value}"
            for key, value in file_values.items()
            if key.startswith("coef.")
        ] + (args.coef or [])
        cfg.coeffs = dict(map(_parse_coef_item, items)) if items else dict(DEFAULT_COEFFS)
        if cfg.lm is None:
            raise ConfigError("gen needs --lm")
    if args.command == "oracle":
        cfg.perturbations = int(
            pick("perturbations", args.perturbations, int)
        )
        if cfg.lm is None:
            raise ConfigError("oracle needs --lm")
    if args.command in ("gen", "analyze") and cfg.out is None:
        raise ConfigError(f"{args.command} needs --out")
    if args.command == "report" and cfg.out is None:
        raise ConfigError("report needs --out pointing at an analyze directory")
    return cfg


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def atomic_write_text(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    cfg: RunConfig,
    inputs: Mapping[str, str],
    outputs: Mapping[str, str],
) -> None:
    config_dict = cfg.as_manifest_dict()
    manifest = {
        "command": cfg.command,
        "config": config_dict,
        "config_sha256": hashlib.sha256(
            json.dumps(config_dict, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "seed": cfg.seed,
        "inputs": dict(sorted(inputs.items())),
        "outputs": dict(sorted(outputs.items())),
    }
    atomic_write_text(out_dir / "manifest.json", dump_json(manifest))


def lmg_csv_text(rows: Sequence[Mapping]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["model", "group", "fold", "share", "total_r2"])
    for row in rows:
        writer.writerow(
            [row["model"], row["group"], row["fold"], repr(row["share"]),
             repr(row["total_r2"])]
        )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    lm = load_lm_tsv(cfg.lm)
    result = generate_synthetic(
        lm,
        cfg.coeffs,
        cfg.noise_sd,
        cfg.n_docs,
        cfg.doc_len,
        seed=cfg.seed,
        n_participants=cfg.participants,
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.tsv"
    write_corpus_tsv(result.observations, corpus_path)
    sidecar_sha = atomic_write_text(out / "sidecar.json", dump_json(result.sidecar))
    outputs = {
        "corpus.tsv": sha256_file(corpus_path),
        "sidecar.json": sidecar_sha,
    }
    write_manifest(out, cfg, {"lm": sha256_file(cfg.lm)}, outputs)
    print(
        f"wrote {corpus_path} ({len(result.observations)} observations, "
        f"{cfg.n_docs} documents, {cfg.participants} participants)"
    )
    print(f"wrote {out / 'sidecar.json'}")
    print(f"wrote {out / 'manifest.json'}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig) -> int:
    inputs: dict[str, str] = {"corpus": sha256_file(cfg.corpus)}
    if cfg.lm is not None:
        source = load_lm_tsv(cfg.lm)
        inputs["lm"] = sha256_file(cfg.lm)
    else:
        source = parse_external_tsv(cfg.external)
        inputs["external"] = sha256_file(cfg.external)
    observations, malformed = parse_corpus(cfg.corpus)
    if malformed:
        print(f"note: {len(malformed)} malformed corpus rows skipped", file=sys.stderr)
    result = analyze_observations(
        source,
        observations,
        seed=cfg.seed,
        folds=cfg.folds,
        predictors=cfg.predictors,
        include_length=not cfg.no_length,
        swap_ortho=cfg.swap_ortho,
        smooth=cfg.smooth,
        lmg_grouping=cfg.lmg_grouping,
        fold_by=cfg.fold_by,
        smooth_k=cfg.smooth_k,
        lambda_grid=cfg.lambda_grid,
    )
    result.report["n_malformed_rows"] = len(malformed)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report_sha = atomic_write_text(out / "report.json", dump_json(result.report))
    csv_sha = atomic_write_text(out / "lmg.csv", lmg_csv_text(result.lmg_rows))
    write_manifest(
        out, cfg, inputs, {"report.json": report_sha, "lmg.csv": csv_sha}
    )
    rep = result.report
    print(
        f"rows: {rep['n_rows']} "
        f"(dropped {rep['n_dropped_document_initial']} document-initial, "
        f"{rep['n_dropped_unread']} unread by all, "
        f"{rep['n_malformed_rows']} malformed), "
        f"{rep['folds']} folds by {rep['fold_mode']}"
    )
    for model in rep["models"]:
        dll = model["delta_llh"]
        mean_r2 = float(np.mean([f["r2"] for f in model["folds"]]))
        line = (
            f"model {model['model']}: mean train R2 {mean_r2:.4f}, "
            f"delta_llh {dll['mean']:.4f} (se {dll['se']:.4f})"
        )
        if model.get("lmg"):
            shares = ", ".join(
                f"{g}={s:.4f}"
                for g, s in zip(model["lmg"]["groups"], model["lmg"]["shares"])
            )
            line += f", lmg: {shares}"
        print(line)
    print(f"wrote {out / 'report.json'}, {out / 'lmg.csv'}, {out / 'manifest.json'}")
    return EXIT_OK


def _uncomputed_check(name: str, tolerance: float, exc: Exception) -> dict:
    """A failed oracle check that could not be computed."""
    return {
        "name": name,
        "residual": None,
        "tolerance": tolerance,
        "passed": False,
        "details": {"error": str(exc)},
    }


def cmd_oracle(cfg: RunConfig) -> int:
    lm = load_lm_tsv(cfg.lm)
    budget = EnumerationBudget(max_len=cfg.max_len, tail_tol=cfg.tail_tol)
    checks: list[dict] = []

    z_prefix = prefix_normalizer(lm)
    q = unigram_minimizer(lm)
    residual = abs(z_prefix - q.normalizer)
    checks.append(
        {
            "name": "normalizer_identity",
            "residual": residual,
            "tolerance": 1e-10,
            "passed": residual <= 1e-10,
            "details": {"prefix_normalizer": z_prefix, "unigram_normalizer": q.normalizer},
        }
    )

    # the remaining checks enumerate strings and contexts up to the
    # budget's horizon, which a model with little stopping mass may not
    # reach, and the minimizer check needs log q, which is undefined for a
    # unit that only unreachable states emit; report either per check
    # instead of aborting the others
    try:
        neg_entropy, counts = truncated_string_moments(lm, budget)
        log_q = unigram_log_probs(lm, q)
    except (ConvergenceError, DegenerateError) as exc:
        checks.append(_uncomputed_check("minimizer_optimality", 1e-12, exc))
    else:
        # the truncated KL is affine in log q, so each perturbation's margin
        # over the minimizer is one dot product with the expected counts
        kl_min = neg_entropy - float(counts @ log_q)
        rng = named_rng(cfg.seed, "simulations")
        logits = log_q + rng.normal(0.0, 0.25, size=(cfg.perturbations, log_q.size))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        margins = -(np.log(probs) - log_q) @ counts
        worst = float(np.min(margins, initial=math.inf))
        violations = int(np.count_nonzero(margins < -1e-12))
        checks.append(
            {
                "name": "minimizer_optimality",
                "residual": -min(worst, 0.0),
                "tolerance": 1e-12,
                "passed": violations == 0,
                "details": {
                    "kl_minimizer": kl_min,
                    "worst_margin": worst,
                    "perturbations": cfg.perturbations,
                    "violations": violations,
                },
            }
        )

    try:
        table = MeasureTable.from_lm(lm, budget)
    except ConvergenceError as exc:
        checks.append(_uncomputed_check("context_mass", cfg.tail_tol, exc))
        checks.append(_uncomputed_check("projection_orthogonality", 1e-9, exc))
    else:
        mass_residual = 1.0 - table.total_weight
        checks.append(
            {
                "name": "context_mass",
                "residual": mass_residual,
                "tolerance": cfg.tail_tol,
                "passed": -1e-12 <= mass_residual <= cfg.tail_tol,
                "details": {"rows": table.n_rows, "tail_mass": table.tail_mass},
            }
        )
        surp = surprisal_variable(table)
        freq = frequency_variable(table)
        resid_var, coeff = project_complement(surp, freq, center=True)
        ortho_residual = abs(inner_product(resid_var, freq))
        checks.append(
            {
                "name": "projection_orthogonality",
                "residual": ortho_residual,
                "tolerance": 1e-9,
                "passed": ortho_residual <= 1e-9,
                "details": {"alpha": coeff.alpha},
            }
        )

    all_passed = True
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        all_passed &= check["passed"]
        if check["residual"] is None:
            print(f"{status} {check['name']} error={check['details']['error']}")
        else:
            print(f"{status} {check['name']} residual={check['residual']:.3e} "
                  f"tolerance={check['tolerance']:.1e}")

    if cfg.out is not None:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "lm": cfg.lm,
            "budget": {"max_len": cfg.max_len, "tail_tol": cfg.tail_tol},
            "checks": checks,
            "all_passed": all_passed,
        }
        sha = atomic_write_text(out / "oracle.json", dump_json(payload))
        write_manifest(out, cfg, {"lm": sha256_file(cfg.lm)}, {"oracle.json": sha})
        print(f"wrote {out / 'oracle.json'}")
    return EXIT_OK if all_passed else EXIT_NUMERIC


def cmd_report(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    report_path = out / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no report.json in {out}; run analyze first")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    plot_rows: list[list] = []
    print(f"analysis of {report['n_rows']} rows, {report['folds']} folds")
    for model in report["models"]:
        dll = model["delta_llh"]
        print(f"\nmodel {model['model']} ({model['kind']})")
        print(f"  delta log-likelihood per token: {dll['mean']:.4f} (se {dll['se']:.4f})")
        mean_r2 = float(np.mean([f["r2"] for f in model["folds"]]))
        print(f"  mean training R2: {mean_r2:.4f}")
        lmg_block = model.get("lmg")
        if lmg_block:
            shares = np.asarray(lmg_block["fold_shares"], dtype=float)
            ses = shares.std(axis=0, ddof=1) / math.sqrt(shares.shape[0])
            for idx, group in enumerate(lmg_block["groups"]):
                mean_share = float(np.mean(shares[:, idx]))
                print(f"  share {group}: {mean_share:.4f} (se {ses[idx]:.4f})")
                plot_rows.append(
                    [model["model"], group, repr(mean_share), repr(float(ses[idx]))]
                )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["model", "group", "mean_share", "se_share"])
    writer.writerows(plot_rows)
    atomic_write_text(out / "plot_lmg.csv", buffer.getvalue())
    print(f"\nwrote {out / 'plot_lmg.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxpred",
        description=(
            "Contextual predictors (surprisal, frequency, PMI) from exactly "
            "enumerable language models, with orthogonalization and "
            "cross-validated reading-time regression."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--lm", help="LM definition TSV")
        p.add_argument("--max-len", type=int, dest="max_len",
                       help="enumeration length budget (default 256)")
        p.add_argument("--tail-tol", type=float, dest="tail_tol",
                       help="enumeration tail tolerance (default 1e-6)")

    p_gen = sub.add_parser("gen", help="generate a synthetic reading-time corpus")
    common(p_gen)
    p_gen.add_argument("--n-docs", type=int, dest="n_docs")
    p_gen.add_argument("--doc-len", type=int, dest="doc_len")
    p_gen.add_argument("--participants", type=int)
    p_gen.add_argument("--noise-sd", type=float, dest="noise_sd")
    p_gen.add_argument(
        "--coef",
        action="append",
        metavar="NAME=VALUE",
        help="true coefficient (repeatable); replaces the default set",
    )

    p_an = sub.add_parser("analyze", help="run the cross-validated analysis")
    common(p_an)
    p_an.add_argument("--corpus", help="reading-time corpus TSV")
    p_an.add_argument("--external", help="external predictor TSV (instead of --lm)")
    p_an.add_argument("--folds", type=int)
    p_an.add_argument(
        "--predictors",
        type=_parse_predictors,
        help="comma-separated subset of: " + ",".join(MODEL_KINDS),
    )
    p_an.add_argument(
        "--no-length", dest="no_length", action="store_const", const=True
    )
    p_an.add_argument("--swap-ortho", dest="swap_ortho", choices=["frequency"])
    p_an.add_argument("--smooth", action="store_const", const=True)
    p_an.add_argument(
        "--lmg-grouping", dest="lmg_grouping", choices=["paired", "separate"]
    )
    p_an.add_argument("--fold-by", dest="fold_by", choices=["token", "document"])
    p_an.add_argument("--smooth-k", type=int, dest="smooth_k")
    p_an.add_argument(
        "--lambda-grid", dest="lambda_grid", type=_parse_lambda_grid,
        help="comma-separated smoothing grid",
    )

    p_or = sub.add_parser("oracle", help="run exact-enumeration diagnostics on an LM")
    common(p_or)
    p_or.add_argument("--perturbations", type=int)

    p_rep = sub.add_parser("report", help="summarize an analyze output directory")
    common(p_rep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        # inside the try so ConfigError from argument type callbacks maps
        # to the config exit code instead of escaping as a traceback
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        handler = {
            "gen": cmd_gen,
            "analyze": cmd_analyze,
            "oracle": cmd_oracle,
            "report": cmd_report,
        }[cfg.command]
        return handler(cfg)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IdentityError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except CoverageError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except CtxpredError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
