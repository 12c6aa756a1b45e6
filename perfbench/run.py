"""Benchmark of the ctxpred command line.

    python3 perfbench/run.py --workload corpus_large --seed 1 --seconds 20 --trace 0

Runs the workload's command sequence (perfbench/workloads.py) as fresh
``python -m ctxpred.cli`` processes, one at a time, from the source tree
of the checkout this file sits in, and repeats the sequence (at least
once) while another repetition should end within ``--seconds``.  Every
op's output is checked, and outputs of one seed must be byte-identical
across repetitions.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics, each the median over repetitions:

- ``wall_s``: wall time of the whole command sequence;
- ``setup_s``: time the sequence's commands spend importing
  ``ctxpred.cli`` and resolving their configuration (median of
  SETUP_PROBES probe processes);
- ``peak_rss_mb``: the largest peak RSS of any command.

With ``--trace 1`` every repetition is followed by a traced one
(perfbench/tracer.py), and the last line reports per-layer self times
and counts from the traced repetitions, the time no layer accounts for,
and the tracing overhead.  Lines before the last one show every metric
with its unit, the ops that failed, and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# every process is killed, and the run fails, past this many seconds
DEADLINE_S = 170.0
# One BLAS thread per command.  With OpenBLAS's default of one thread per
# core, repeated runs of one analyze command on 2 cores spread 25% in
# wall time (and used 1.6x the CPU time); with one thread they spread 10%.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# per-layer time metric -> span name; each is the summed self time
LAYER_TIMES = {
    "corpus.generate_s": "corpus.generate",
    "corpus.write_s": "corpus.write",
    "corpus.parse_s": "corpus.parse",
    "corpus.aggregate_s": "corpus.aggregate",
    "corpus.kfold_s": "corpus.kfold",
    "corpus.standardize_s": "corpus.standardize",
    "lm.load_s": "lm.load",
    "lm.sample_s": "lm.sample",
    "lm.unigram_s": "lm.unigram",
    "lm.kl_s": "lm.kl",
    "lm.normalizer_s": "lm.normalizer",
    "predictors.score_s": "predictors.score",
    "predictors.columns_s": "predictors.columns",
    "predictors.external_parse_s": "predictors.external_parse",
    "predictors.variables_s": "predictors.variables",
    "hilbert.measure_s": "hilbert.measure",
    "hilbert.projection_s": "hilbert.projection",
    "regression.lmg_s": "regression.lmg",
    "regression.ols_s": "regression.ols",
    "regression.design_s": "regression.design",
    "regression.equivalence_s": "regression.equivalence",
    "smooth.fit_s": "smooth.fit",
    "smooth.predict_s": "smooth.predict",
    "pipeline.analyze_self_s": "pipeline.analyze",
    "cli.io_s": "cli.io",
    "cli.import_s": "cli.import",
}
# per-layer count metric -> tracer counter
LAYER_COUNTS = {
    "corpus.parsed_rows": "corpus.parsed_rows",
    "corpus.aggregated_tokens": "corpus.aggregated_tokens",
    "corpus.standardize_calls": "corpus.standardize.calls",
    "lm.sample_calls": "lm.sample.calls",
    "lm.kl_calls": "lm.kl.calls",
    "predictors.rows_scored": "predictors.rows_scored",
    "hilbert.measure_rows": "hilbert.measure_rows",
    "hilbert.measure_failures": "hilbert.measure.errors",
    "hilbert.projection_calls": "hilbert.projection.calls",
    "regression.lmg_subset_fits": "regression.lmg_subset_fits",
    "smooth.fits": "smooth.fit.calls",
    "pipeline.folds": "pipeline.folds",
    "cli.bytes_written": "cli.bytes_written",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "bytes" if name == "cli.bytes_written" else "count" for name in LAYER_COUNTS})
    units["hilbert.rows_per_support_cell"] = "ratio"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import ctxpred.cli as cli
imported = time.perf_counter()
resolve = []
for argv in json.loads(sys.argv[1]):
    t = time.perf_counter()
    cli.resolve_config(cli.build_parser().parse_args(argv))
    resolve.append(time.perf_counter() - t)
print(json.dumps({"import_s": imported - start, "resolve_s": resolve}))
"""


class DeadlineError(RuntimeError):
    pass


@dataclass
class Repetition:
    wall_s: float
    peak_rss_mb: float
    traces: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(THREAD_ENV)
    return env


def run_process(argv: list[str], env: dict, log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one child process."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise DeadlineError("no time left for another command")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise DeadlineError(f"{argv[1:4]} ran past the deadline")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_sequence(commands, env, tally, digests, work: Path, deadline: float, traced: bool) -> Repetition:
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
    wall = 0.0
    peak = 0.0
    traces = []
    for index, cmd in enumerate(commands):
        spans_path = work / f"spans_{index}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "ctxpred.cli", *cmd.argv]
        code, seconds, rss = run_process(argv, env, work / f"{cmd.label}.log", deadline)
        wall += seconds
        peak = max(peak, rss)
        try:
            problems, wrong = cmd.check(cmd, code, tally)
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            problems, wrong = [], [f"output unreadable: {type(exc).__name__}: {exc}"]
        for name in cmd.digest_files:
            found = workloads.digest(cmd.out / name)
            if found is not None and digests.setdefault((cmd.label, name), found) != found:
                wrong.append(f"{name} differs between runs of one seed")
        tally.op(cmd.label, problems, wrong)
        if traced:
            traces.append(json.loads(spans_path.read_text(encoding="utf-8")))
    return Repetition(wall, peak, traces)


def setup_seconds(commands, env: dict, deadline: float) -> float:
    """Median over probes of the import and config time of every command.

    Each command is its own process and imports ``ctxpred.cli`` once, so
    a probe's import time counts once per command of the sequence.
    """
    argvs = json.dumps([cmd.argv for cmd in commands])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, argvs], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(deadline - time.perf_counter(), 1.0),
            check=True,
        )
        probe = json.loads(done.stdout)
        samples.append(len(commands) * probe["import_s"] + sum(probe["resolve_s"]))
    return statistics.median(samples)


def layer_metrics(rep: Repetition) -> dict[str, float]:
    self_s: Counter = Counter()
    counts: Counter = Counter()
    for trace in rep.traces:
        self_s.update(tracer.self_time_by_name(trace["spans"]))
        counts.update(trace["counts"])
    metrics = {name: float(self_s[span]) for name, span in LAYER_TIMES.items()}
    metrics.update({name: float(counts[key]) for name, key in LAYER_COUNTS.items()})
    cells = counts["hilbert.support_cells"]
    metrics["hilbert.rows_per_support_cell"] = counts["hilbert.measure_rows"] / cells if cells else 0.0
    metrics["trace.unattributed_s"] = rep.wall_s - sum(metrics[name] for name in LAYER_TIMES)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 size: str = "full") -> tuple[workloads.Tally, dict[str, float]]:
    """Measure one workload; returns the tally and the metrics to report.

    Prints the wall time of every repetition as it ends.
    """
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    env = child_env()
    work.mkdir(parents=True, exist_ok=True)
    commands = workloads.build(name, seed, ROOT, work, size)
    tally = workloads.Tally()
    digests: dict = {}
    setup = None if trace else setup_seconds(commands, env, deadline)
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    loop_start = time.perf_counter()
    # start another repetition only if it should end within --seconds, so
    # a run lasts about --seconds whatever a repetition takes
    while not plain or (time.perf_counter() - loop_start) * (len(plain) + 1) / len(plain) <= seconds:
        plain.append(run_sequence(commands, env, tally, digests, work, deadline, False))
        print(f"  repetition {len(plain)}: {plain[-1].wall_s:.3f} s", flush=True)
        if trace:
            traced.append(run_sequence(commands, env, tally, digests, work, deadline, True))
            print(f"  traced repetition {len(traced)}: {traced[-1].wall_s:.3f} s", flush=True)
    wall = statistics.median(r.wall_s for r in plain)
    if not trace:
        return tally, {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        }
    per_rep = [layer_metrics(r) for r in traced]
    metrics = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - wall
    return tally, metrics


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": THREAD_ENV,
        "git_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ("src/ctxpred/cli.py", "fixtures/mixture.tsv", "fixtures/m0.tsv",
                           "fixtures/m1.tsv") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a ctxpred checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", flush=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        tally, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (DeadlineError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  ops = {tally.attempted}, ops_failed = {tally.failed}, correct = {tally.correct}")
    for problem, times in Counter(tally.problems).items():
        print(f"  failed {times}x: {problem}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
