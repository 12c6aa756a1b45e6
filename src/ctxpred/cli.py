"""Command-line surface: gen / analyze / oracle / report.

Configuration comes from an optional plain-text ``key=value`` file plus
command-line flags; flags win.  Every option is one row of ``OPTIONS``,
which names the commands that read it; a command accepts only its own
flags, and its ``manifest.json`` records exactly the options it read,
the configuration's hash, the package, numpy and scipy versions, and
SHA-256 digests of all inputs and outputs — no timestamps, so identical
runs produce byte-identical artifacts.  Output files are written
atomically (temporary file, then rename).

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
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple, Sequence

from . import __version__
from .choices import (
    DEFAULT_KNOTS,
    DEFAULT_MAX_LEN,
    DEFAULT_TAIL_TOL,
    FOLD_UNITS,
    LAMBDA_GRID,
    LMG_GROUPINGS,
    MODEL_KINDS,
    SWAP_TARGET,
    check_choice,
    check_lambda_grid,
    check_max_len,
    check_noise_sd,
    check_predictors,
    check_seed,
    check_swap_ortho,
    check_tail_tol,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    CtxpredError,
    DegenerateError,
    FormatError,
    IdentityError,
)
from .files import read_text, write_atomic

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


# ---------------------------------------------------------------------------
# configuration: one table row per option; each converter takes the text of
# a flag or a configuration-file value and returns the checked value
# ---------------------------------------------------------------------------


def _number(kind: type, least: float | None = None) -> Callable[[str], float]:
    """Converter to ``int`` or ``float``, bounded below by ``least`` if given."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"expects {kind.__name__}, got {text!r}") from None
        if least is not None and value < least:
            raise ConfigError(f"must be at least {least}, got {value}")
        return value

    return convert


def _to_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expects a boolean, got {text!r}")


def _parse_predictors(value: str) -> tuple[str, ...]:
    return check_predictors(p.strip() for p in value.split(",") if p.strip())


def _parse_lambda_grid(value: str) -> tuple[float, ...]:
    try:
        grid = [float(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid {value!r}: {exc}") from None
    return check_lambda_grid(grid)


def _parse_coef_item(item: str) -> tuple[str, float]:
    if "=" not in item:
        raise ConfigError(f"expected NAME=VALUE for a coefficient, got {item!r}")
    name, _, raw = item.partition("=")
    try:
        return name.strip(), float(raw)
    except ValueError:
        raise ConfigError(f"coefficient {name!r} has non-numeric value {raw!r}") from None


def _parse_coeffs(items: Sequence[str]) -> dict[str, float]:
    return dict(map(_parse_coef_item, items))


class Option(NamedTuple):
    """One option: config key ``name``, flag ``--name-with-dashes``."""

    name: str
    commands: str  # space-separated names of the commands that read it
    convert: Callable[[str], object]
    default: object
    help: str

    @property
    def flag(self) -> str:
        return "--coef" if self.name == "coeffs" else "--" + self.name.replace("_", "-")


OPTIONS = {opt.name: opt for opt in (
    Option("out", "gen analyze oracle report", str, None, "output directory"),
    Option("lm", "gen analyze oracle", str, None, "LM definition TSV"),
    Option("seed", "gen analyze oracle", lambda text: check_seed(_number(int)(text)), 0,
           "master seed"),
    Option("n_docs", "gen", _number(int, 1), 50, "documents to sample"),
    Option("doc_len", "gen", _number(int, 1), 100, "minimum tokens per document"),
    Option("participants", "gen", _number(int, 1), 1, "readers of every token"),
    Option("noise_sd", "gen", lambda text: check_noise_sd(_number(float)(text)), 10.0,
           "reading-time noise SD (ms)"),
    Option("coeffs", "gen", _parse_coeffs, DEFAULT_COEFFS,
           "true coefficient (repeatable; config key coef.NAME); replaces the defaults"),
    Option("corpus", "analyze", str, None, "reading-time corpus TSV"),
    Option("external", "analyze", str, None, "external predictor TSV (instead of --lm)"),
    Option("folds", "analyze", _number(int, 2), 10, "cross-validation folds"),
    Option("predictors", "analyze", _parse_predictors, MODEL_KINDS,
           "comma-separated subset of: " + ",".join(MODEL_KINDS)),
    Option("no_length", "analyze", _to_bool, False, "leave word length out"),
    Option("swap_ortho", "analyze", check_swap_ortho, None,
           f"orthogonalize this predictor instead: {SWAP_TARGET}"),
    Option("smooth", "analyze", _to_bool, False, "also fit spline models"),
    Option("lmg_grouping", "analyze", partial(check_choice, "lmg grouping", LMG_GROUPINGS),
           LMG_GROUPINGS[0], "variance-share groups: " + " or ".join(LMG_GROUPINGS)),
    Option("fold_by", "analyze", partial(check_choice, "fold unit", FOLD_UNITS),
           FOLD_UNITS[0], "fold unit: " + " or ".join(FOLD_UNITS)),
    Option("smooth_k", "analyze", _number(int, 3), DEFAULT_KNOTS, "spline basis size"),
    Option("lambda_grid", "analyze", _parse_lambda_grid, LAMBDA_GRID,
           "comma-separated smoothing grid"),
    Option("max_len", "oracle", lambda text: check_max_len(_number(int)(text)), DEFAULT_MAX_LEN,
           "enumeration length budget"),
    Option("tail_tol", "oracle", lambda text: check_tail_tol(_number(float)(text)),
           DEFAULT_TAIL_TOL, "enumeration tail tolerance"),
    Option("perturbations", "oracle", _number(int, 1), 1000,
           "random unigram candidates the minimizer must beat"),
)}


class RunConfig(SimpleNamespace):
    """A command and, as attributes, the options it read."""


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        # keys other commands read pass here; resolve_config ignores them
        if not (key.startswith("coef.") or (key in OPTIONS and key != "coeffs")):
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each option the command reads: its flag, else its file value, else
    its default; flag and file text go through the same converter."""
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=args.command)
    for opt in OPTIONS.values():
        if args.command not in opt.commands.split():
            continue
        raw, source = getattr(args, opt.name), opt.flag
        if opt.name == "coeffs":
            # coefficients from the file and the flags merge, flags winning
            # per name; any of them replace the default set
            raw = [f"{key[len('coef.'):]}={value}" for key, value in file_values.items()
                   if key.startswith("coef.")] + (raw or [])
            raw, source = raw or None, "coefficients"
        elif raw is None and opt.name in file_values:
            raw, source = file_values[opt.name], f"configuration key {opt.name!r}"
        try:
            setattr(cfg, opt.name, opt.default if raw is None else opt.convert(raw))
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None
    if args.command == "analyze" and (cfg.lm is None) == (cfg.external is None):
        raise ConfigError(
            "analyze needs exactly one predictor source: --lm or --external"
        )
    for name in COMMANDS[args.command][1]:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{args.command} needs {OPTIONS[name].flag}")
    return cfg


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def atomic_write_text(path: Path, text: str) -> str:
    return write_atomic(path, [text])


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# no command calls this (digests come from the parsing reads); perfbench's tracer names it
def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def installed_version(distribution: str) -> str | None:
    """The ``Version`` in the metadata of the installed ``distribution``
    (a lower-case name), or None if it is not installed.  The metadata is
    the ``METADATA`` file of the first ``NAME-*.dist-info`` directory on
    ``sys.path``, where ``importlib.metadata.version`` finds it; it is
    read without importing that module or the distribution, as either
    import takes longer than the whole manifest."""
    for entry in sys.path:
        try:
            children = os.listdir(entry or ".")
        except OSError:
            continue
        for child in children:
            low = child.lower()
            if low.endswith(".dist-info") and low.partition("-")[0] == distribution:
                try:
                    text = Path(entry or ".", child, "METADATA").read_text(encoding="utf-8")
                except OSError:
                    continue
                # the headers end at the first blank line
                for line in text.partition("\n\n")[0].splitlines():
                    if line.startswith("Version:"):
                        return line[len("Version:"):].strip()
    return None


def write_manifest(
    out_dir: Path,
    cfg: RunConfig,
    inputs: Mapping[str, str],
    outputs: Mapping[str, str],
) -> None:
    import numpy as np  # the command that writes a manifest has loaded it

    config = {k: v for k, v in vars(cfg).items() if k not in ("command", "out")}
    # the input digests identify the files; their paths as typed stay out
    # of the hash, which then does not depend on the working directory
    hashed = {k: v for k, v in config.items() if k not in ("lm", "corpus", "external")}
    manifest = {
        "command": cfg.command,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(hashed, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "seed": cfg.seed,
        "inputs": dict(sorted(inputs.items())),
        "outputs": dict(sorted(outputs.items())),
        "versions": {
            "ctxpred": __version__,
            "numpy": np.__version__,
            "scipy": installed_version("scipy"),
        },
    }
    atomic_write_text(out_dir / "manifest.json", dump_json(manifest))


def csv_text(header: Sequence[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    from .corpus import generate_synthetic, write_corpus_tsv
    from .lm import load_lm_tsv

    lm_digest = hashlib.sha256()
    lm = load_lm_tsv(cfg.lm, lm_digest)
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
    corpus_path = out / "corpus.tsv"
    outputs = {
        "corpus.tsv": write_corpus_tsv(result, corpus_path),
        "sidecar.json": atomic_write_text(out / "sidecar.json", dump_json(result.sidecar)),
    }
    write_manifest(out, cfg, {"lm": lm_digest.hexdigest()}, outputs)
    print(
        f"wrote {corpus_path} ({result.rt.size} observations, "
        f"{cfg.n_docs} documents, {cfg.participants} participants)"
    )
    print(f"wrote {out / 'sidecar.json'}")
    print(f"wrote {out / 'manifest.json'}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig) -> int:
    from .corpus import aggregate_participants, malformed_examples, parse_corpus
    from .lm import load_lm_tsv
    from .pipeline import analyze_tokens
    from .predictors import parse_external_tsv

    # every input's digest is of the bytes parsed, taken as they are
    # read; the corpus opens first, so a missing one is the error
    inputs: dict[str, str] = {}
    with open(cfg.corpus, "rb") as corpus_file:
        digest = hashlib.sha256()
        if cfg.lm is not None:
            source = load_lm_tsv(cfg.lm, digest)
            inputs["lm"] = digest.hexdigest()
        else:
            source = parse_external_tsv(cfg.external, digest)
            inputs["external"] = digest.hexdigest()
        digest = hashlib.sha256()
        observations, malformed = parse_corpus(corpus_file, digest)
        inputs["corpus"] = digest.hexdigest()
    if malformed:
        print(
            f"note: {len(malformed)} malformed corpus rows skipped: "
            f"{malformed_examples(malformed)}",
            file=sys.stderr,
        )
    # the readings (about 1.25 times the corpus file) go once averaged
    tokens = aggregate_participants(observations)
    del observations
    rep = analyze_tokens(
        source,
        tokens,
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
    rep["n_malformed_rows"] = len(malformed)
    out = Path(cfg.out)
    report_sha = atomic_write_text(out / "report.json", dump_json(rep))
    header = ["model", "group", "fold", "share", "total_r2"]
    csv_sha = atomic_write_text(out / "lmg.csv", csv_text(header, _lmg_rows(rep)))
    write_manifest(out, cfg, inputs, {"report.json": report_sha, "lmg.csv": csv_sha})
    print(
        f"rows: {rep['n_rows']} "
        f"(dropped {rep['n_dropped_document_initial']} document-initial, "
        f"{rep['n_dropped_unread']} unread by all, "
        f"{rep['n_malformed_rows']} malformed), "
        f"{rep['folds']} folds by {rep['fold_mode']}"
    )
    for model in rep["models"]:
        dll = model["delta_llh"]
        mean_r2 = _mean([f["r2"] for f in model["folds"]])
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


def _lmg_rows(report: dict):
    """``lmg.csv``'s rows from the report, by fold, linear model and group;
    a fold's LMG total is its ``r2``, read off the one factorization."""
    linear = [model for model in report["models"] if "lmg" in model]
    for f in range(report["folds"]):
        for model in linear:
            entry, shares = model["folds"][f], model["lmg"]["fold_shares"][f]
            for group, share in zip(model["lmg"]["groups"], shares):
                yield [model["model"], group, entry["fold"], repr(share), repr(entry["r2"])]


def _mean(values: Sequence[float]) -> float:
    """The mean of fold values, from their correctly rounded sum."""
    if not values:
        raise ValueError("no folds to average")
    return math.fsum(values) / len(values)


def _standard_error(values: Sequence[float]) -> float:
    """The sample standard deviation of fold values over the root of their
    count, from correctly rounded sums."""
    if len(values) < 2:
        raise ValueError(f"{len(values)} folds give no standard error")
    centre = _mean(values)
    spread = math.fsum((v - centre) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(spread) / math.sqrt(len(values))


def _check(
    name: str, residual: float | None, tolerance: float, passed: bool, **details
) -> dict:
    """One oracle check record; an uncomputed check has residual None and
    its error among the details."""
    return {
        "name": name,
        "residual": residual,
        "tolerance": tolerance,
        "passed": passed,
        "details": details,
    }


def cmd_oracle(cfg: RunConfig) -> int:
    import numpy as np

    from .hilbert import MeasureTable, frequency_variable, inner_product
    from .hilbert import project_complement, surprisal_variable
    from .lm import EnumerationBudget, enumerated_context_mass, expected_counts
    from .lm import forward_kl_unigram, load_lm_tsv, prefix_normalizer
    from .lm import unigram_log_probs, unigram_minimizer
    from .seeding import named_rng

    lm_digest = hashlib.sha256()
    lm = load_lm_tsv(cfg.lm, lm_digest)
    budget = EnumerationBudget(max_len=cfg.max_len, tail_tol=cfg.tail_tol)
    checks: list[dict] = []

    # a check that needs what the model may not give fails alone, with the
    # error attached, instead of aborting the others: log q is undefined for
    # a unit that only unreachable states emit, the enumeration may not
    # meet its tail tolerance within the budget's horizon on a model with
    # little stopping mass, and a constant frequency spans no projection
    q = unigram_minimizer(lm)
    try:
        log_q = unigram_log_probs(lm, q)
    except DegenerateError as exc:
        checks.append(_check("minimizer_optimality", None, 1e-12, False, error=str(exc)))
    else:
        # the KL is affine in log q: each perturbation's margin over the
        # minimizer is a dot product with the exact expected counts
        rng = named_rng(cfg.seed, "simulations")
        logits = log_q + rng.normal(0.0, 0.25, size=(cfg.perturbations, log_q.size))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        margins = -(np.log(probs) - log_q) @ expected_counts(lm)
        worst = float(np.min(margins))
        violations = int(np.count_nonzero(margins < -1e-12))
        # how far the worst margin falls below zero; subtracting from 0.0
        # writes no shortfall as 0.0 rather than -0.0
        checks.append(
            _check(
                "minimizer_optimality", 0.0 - min(worst, 0.0), 1e-12, violations == 0,
                kl_minimizer=forward_kl_unigram(lm, q), worst_margin=worst,
                perturbations=cfg.perturbations, violations=violations,
            )
        )

    try:
        enumerated_mass = enumerated_context_mass(lm, budget)
    except ConvergenceError as exc:
        checks.append(_check("context_mass", None, cfg.tail_tol, False, error=str(exc)))
    else:
        # the enumeration checks the visit solve state by state: it falls
        # short of the visits by at most the tail it left out, and exceeds
        # them by rounding at most; the residual is the worst of either
        z_prefix = prefix_normalizer(lm)
        gaps = (lm.visits - enumerated_mass) / z_prefix
        mass_residual = float(gaps.max() if gaps.min() >= -1e-12 else gaps.min())
        checks.append(
            _check(
                "context_mass", mass_residual, cfg.tail_tol,
                -1e-12 <= mass_residual <= cfg.tail_tol,
                uncovered_mass=1.0 - float(np.sum(enumerated_mass)) / z_prefix,
            )
        )

    table = MeasureTable.from_lm(lm)
    freq = frequency_variable(table, q)
    try:
        resid_var, coeff = project_complement(surprisal_variable(table), freq)
    except DegenerateError as exc:
        checks.append(_check("projection_orthogonality", None, 1e-9, False, error=str(exc)))
    else:
        ortho_residual = abs(inner_product(resid_var, freq))
        checks.append(
            _check(
                "projection_orthogonality", ortho_residual, 1e-9, ortho_residual <= 1e-9,
                alpha=coeff.alpha,
            )
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
        payload = {
            "lm": cfg.lm,
            "budget": {"max_len": cfg.max_len, "tail_tol": cfg.tail_tol},
            "checks": checks,
            "all_passed": all_passed,
        }
        sha = atomic_write_text(out / "oracle.json", dump_json(payload))
        write_manifest(out, cfg, {"lm": lm_digest.hexdigest()}, {"oracle.json": sha})
        print(f"wrote {out / 'oracle.json'}")
    return EXIT_OK if all_passed else EXIT_NUMERIC


def cmd_report(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    report_path = out / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no report.json in {out}; run analyze first")
    try:
        report = json.loads(read_text(report_path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{report_path} is not valid JSON: {exc}") from None
    # built whole before it is printed: a report of another shape prints nothing
    plot_rows: list[list] = []
    try:
        lines = [f"analysis of {report['n_rows']} rows, {report['folds']} folds"]
        for model in report["models"]:
            dll = model["delta_llh"]
            mean_r2 = _mean([f["r2"] for f in model["folds"]])
            lines += [
                f"\nmodel {model['model']} ({model['kind']})",
                f"  delta log-likelihood per token: {dll['mean']:.4f} (se {dll['se']:.4f})",
                f"  mean training R2: {mean_r2:.4f}",
            ]
            lmg_block = model.get("lmg")
            if lmg_block:
                groups, shares = lmg_block["groups"], lmg_block["shares"]
                fold_shares = lmg_block["fold_shares"]
                if any(len(row) != len(groups) for row in [shares, *fold_shares]):
                    raise ValueError(
                        f"model {model['model']} has {len(groups)} groups and "
                        "shares or fold shares of another length"
                    )
                for idx, group in enumerate(groups):
                    # the mean share as analyze stored it; the folds share
                    # most training rows, so this standard error understates
                    # the share's sampling error
                    share = float(shares[idx])
                    se = _standard_error([row[idx] for row in fold_shares])
                    lines.append(f"  share {group}: {share:.4f} (se {se:.4f})")
                    plot_rows.append([model["model"], group, repr(share), repr(se)])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        why = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise FormatError(f"{report_path}: not an analyze report: {why}") from None
    print("\n".join(lines))
    header = ["model", "group", "mean_share", "se_share"]
    atomic_write_text(out / "plot_lmg.csv", csv_text(header, plot_rows))
    print(f"\nwrote {out / 'plot_lmg.csv'}")
    return EXIT_OK


# each command: its handler, the inputs it cannot run without, its summary
COMMANDS = {
    "gen": (cmd_gen, ("lm", "out"), "generate a synthetic reading-time corpus"),
    "analyze": (cmd_analyze, ("corpus", "out"), "run the cross-validated analysis"),
    "oracle": (cmd_oracle, ("lm",), "run exact-enumeration diagnostics on an LM"),
    "report": (cmd_report, ("out",), "summarize an analyze output directory"),
}


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
    for command, (_, _, summary) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        command_parser.add_argument("--config", help="key=value configuration file")
        # no argparse types or defaults: resolve_config converts the text
        # of flags and file values alike, and None marks an unset flag
        for opt in OPTIONS.values():
            if command not in opt.commands.split():
                continue
            kwargs = {"dest": opt.name, "help": opt.help}
            if type(opt.default) in (int, float, str):
                kwargs["help"] += f" (default {opt.default})"
            if opt.convert is _to_bool:
                kwargs.update(action="store_const", const="true")
            elif opt.name == "coeffs":
                kwargs.update(action="append", metavar="NAME=VALUE")
            command_parser.add_argument(opt.flag, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # argparse itself exits 2 on a flag the command does not read
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.command][0](cfg)
    except (ConfigError, FormatError, OSError) as exc:
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
