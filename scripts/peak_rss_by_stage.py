"""Resident memory of ``ctxpred gen`` or ``ctxpred analyze``, stage by stage.

Runs the command in this process with its stage functions wrapped by
name, and prints after each stage the process's resident set now
(``VmRSS``) and its peak so far (``VmHWM``), in MB, as
``/proc/self/status`` gives them, so it runs on Linux only; and the
largest peak of the fold workers that have ended (``--smooth``).  The stages
are the model or external file's load, the corpus's generation or parse,
aggregation, ``_usable_rows``, the identity check, ``kfold``, the folds
and the writes.  The command writes into a temporary directory that is
removed at the end (an ``--out`` given is overridden), so no artifact
is left.

Usage:
    python3 scripts/peak_rss_by_stage.py gen --lm fixtures/mixture.tsv \\
        --seed 7 --n-docs 200 --doc-len 250 --participants 3
    python3 scripts/peak_rss_by_stage.py analyze --lm fixtures/mixture.tsv \\
        --corpus corpus.tsv --seed 7

It exits 1 when a stage of the command never ran, as when a stage
function is renamed.
"""

import functools
import importlib
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

STATUS = Path("/proc/self/status")
# stage -> the functions that make it, as (module under ctxpred, attribute)
STAGES = {
    "load": [("lm", "load_lm_tsv"), ("predictors", "parse_external_tsv")],
    "generate": [("corpus", "generate_synthetic")],
    "parse": [("corpus", "parse_corpus")],
    "aggregate": [("corpus", "aggregate_participants")],
    "usable rows": [("pipeline", "_usable_rows")],
    "identity check": [("regression", "equivalence_report")],
    "kfold": [("corpus", "kfold")],
    "folds": [("pipeline", "_run_folds")],
    "write": [
        ("corpus", "write_corpus_tsv"),
        ("cli", "atomic_write_text"),
        ("cli", "write_manifest"),
    ],
}
# the stages each command passes through
RUNS = {
    "gen": ("load", "generate", "write"),
    "analyze": tuple(stage for stage in STAGES if stage != "generate"),
}


def memory_mb() -> tuple[float, float, float]:
    """The process's VmRSS and VmHWM, and the largest peak RSS of the
    child processes it has waited for (the fold workers), in MB."""
    fields = dict(line.split(":", 1) for line in STATUS.read_text().splitlines())
    own = (int(fields[key].split()[0]) / 1024.0 for key in ("VmRSS", "VmHWM"))
    return (*own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def report(stage: str) -> None:
    print("{:<16}{:>10.1f}{:>10.1f}{:>12.1f}".format(stage, *memory_mb()), flush=True)


def install(reached: set[str]) -> None:
    """Wrap every stage function at each ctxpred module attribute that
    holds it, so a name bound by ``from .corpus import kfold`` is wrapped
    too; each stage that ends is added to ``reached``."""
    modules = [
        importlib.import_module(f"ctxpred.{name}")
        for name in ("cli", "corpus", "lm", "pipeline", "predictors", "regression")
    ]
    for stage, functions in STAGES.items():
        for module, attr in functions:
            original = getattr(importlib.import_module(f"ctxpred.{module}"), attr)

            @functools.wraps(original)
            def wrapper(*args, _original=original, _stage=stage, **kwargs):
                try:
                    return _original(*args, **kwargs)
                finally:
                    reached.add(_stage)
                    report(_stage)

            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)


def main(argv: list[str]) -> int:
    if not STATUS.exists():
        print("peak_rss_by_stage.py reads /proc/self/status: Linux only", file=sys.stderr)
        return 2
    if not argv or argv[0] not in RUNS:
        print(__doc__, file=sys.stderr)
        return 2
    from ctxpred.cli import main as cli_main

    reached: set[str] = set()
    install(reached)
    print("{:<16}{:>10}{:>10}{:>12}".format("stage", "VmRSS MB", "VmHWM MB", "workers MB"))
    report("start")
    with tempfile.TemporaryDirectory() as out:
        code = cli_main([*argv, "--out", out])
    report("end")
    missing = [stage for stage in RUNS[argv[0]] if stage not in reached]
    if code == 0 and missing:
        # a stage function renamed or no longer called: its wrapper never ran
        print(f"stages never reached: {', '.join(missing)}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
