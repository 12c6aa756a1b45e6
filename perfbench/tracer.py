"""Span tracer for the benchmark's traced runs.

Run as a script, it executes one ``ctxpred`` command in this process with
the public functions of every layer module wrapped, and writes the spans
and counts it recorded as JSON when the command ends::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- analyze --lm ...

A wrapper is installed at every module attribute that holds the original
function, so a name bound by ``from .regression import lmg`` inside
``pipeline`` is traced as well as ``regression.lmg`` itself.  Methods and
classmethods are patched on their class, which every caller looks up.

A span is ``[name, start, end, parent index]``; the ``cli.import`` span
covers ``import ctxpred.cli``.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> functions it covers, as (module under ctxpred, attribute)
LAYER_FUNCTIONS: dict[str, list[tuple[str, str]]] = {
    "corpus.generate": [("corpus", "generate_synthetic")],
    "corpus.write": [("corpus", "write_corpus_tsv")],
    "corpus.parse": [("corpus", "parse_corpus")],
    "corpus.aggregate": [("corpus", "aggregate_participants")],
    "corpus.kfold": [("corpus", "kfold")],
    "corpus.standardize": [("corpus", "standardize_stats")],
    "lm.load": [("lm", "load_lm_tsv")],
    "lm.sample": [("lm", "sample_string")],
    "lm.unigram": [("lm", "unigram_minimizer")],
    "lm.kl": [("lm", "forward_kl_unigram")],
    "lm.normalizer": [("lm", "prefix_normalizer")],
    "predictors.score": [("predictors", "build_predictor_table")],
    "predictors.columns": [("predictors", "table_columns")],
    "predictors.external_parse": [("predictors", "parse_external_tsv")],
    "predictors.variables": [
        ("predictors", "surprisal_variable"),
        ("predictors", "frequency_variable"),
        ("predictors", "pmi_variable"),
    ],
    "hilbert.measure": [("hilbert", "MeasureTable.from_lm")],
    "hilbert.projection": [
        ("hilbert", "project_complement"),
        ("hilbert", "fit_projection"),
        ("hilbert", "sample_orthogonalize"),
        ("hilbert", "inner_product"),
    ],
    "regression.lmg": [("regression", "lmg")],
    "regression.ols": [("regression", "ols_fit")],
    "regression.design": [("regression", "DesignMatrix.build")],
    "regression.equivalence": [("regression", "equivalence_report")],
    "smooth.fit": [("smooth", "fit_smooth")],
    "smooth.predict": [("smooth", "SmoothFit.predict")],
    "pipeline.analyze": [
        ("pipeline", "analyze_observations"),
        ("pipeline", "analyze_tokens"),
    ],
    "cli.io": [
        ("cli", "atomic_write_text"),
        ("cli", "write_manifest"),
        ("cli", "sha256_file"),
    ],
    "cli.main": [("cli", "main")],
}


def _count_parse(counts, result, args):
    counts["corpus.parsed_rows"] += len(result[0])


def _count_aggregate(counts, result, args):
    counts["corpus.aggregated_tokens"] += len(result)


def _count_kfold(counts, result, args):
    counts["pipeline.folds"] += result.k


def _count_score(counts, result, args):
    counts["predictors.rows_scored"] += len(result)


def _count_measure(counts, result, args):
    counts["hilbert.measure_rows"] += result.n_rows
    counts["hilbert.support_cells"] += len(result.source.states) * len(result.symbols)


def _count_lmg(counts, result, args):
    counts["regression.lmg_subset_fits"] += result.n_fits


def _count_write(counts, result, args):
    # atomic_write_text(path, text); write_manifest and sha256_file write
    # nothing themselves (the manifest goes through atomic_write_text)
    if len(args) == 2 and isinstance(args[1], str):
        counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


COUNTERS = {
    "corpus.parse": _count_parse,
    "corpus.aggregate": _count_aggregate,
    "corpus.kfold": _count_kfold,
    "predictors.score": _count_score,
    "hilbert.measure": _count_measure,
    "regression.lmg": _count_lmg,
    "cli.io": _count_write,
}


class Tracer:
    """Records spans and counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, self.clock(), None, self._open[-1] if self._open else None]
            self.spans.append(record)
            self._open.append(index)
            self.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                record[2] = self.clock()
                self._open.pop()
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS wherever callers find it."""
        loaded = [
            module
            for name, module in sys.modules.items()
            if name == "ctxpred" or name.startswith("ctxpred.")
        ]
        for span_name, targets in LAYER_FUNCTIONS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(f"ctxpred.{module_name}")
                class_name, _, method = attr.rpartition(".")
                if class_name:
                    cls = getattr(owner, class_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        setattr(cls, method, classmethod(self.wrap(span_name, raw.__func__)))
                    else:
                        setattr(cls, method, self.wrap(span_name, raw))
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(span_name, original)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CTXPRED_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    start = tracer.clock()
    import ctxpred.cli as cli

    tracer.spans.append(["cli.import", start, tracer.clock(), None])
    tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
