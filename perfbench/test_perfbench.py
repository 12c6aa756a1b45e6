"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil

import pytest

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["leaf", 6.0, 7.0, 2],
        ["a", 7.5, 8.0, 2],
        # overlapping children are counted once, clipped to the parent
        ["c", 20.0, 30.0, None],
        ["d", 19.0, 24.0, 5],
        ["d", 22.0, 26.0, 5],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5, 4.0, 5.0, 4.0])
    assert tracer.self_time_by_name(spans) == pytest.approx(
        {"root": 3.0, "a": 3.5, "b": 2.5, "leaf": 1.0, "c": 4.0, "d": 9.0}
    )


def test_benchmark_json_names_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload):
    work = run.ROOT / ".bench_work" / f"test-{workload}"
    try:
        tally, e2e = run.run_workload(workload, 5, 0, False, work, size="tiny")
        _, layers = run.run_workload(workload, 5, 0, True, work, size="tiny")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert tally.correct, tally.problems
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in e2e.values())
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["cli.import_s"] > 0
    if workload == "external_smooth":
        # lmg, ols_fit and fit_smooth are called through names that
        # pipeline bound at import, so these show that those were wrapped
        assert layers["regression.lmg_subset_fits"] > 0
        assert layers["regression.ols_s"] > 0
        assert layers["smooth.fits"] > 0
        # the D2 probe is counted, not dropped
        assert tally.failed == 1
    if workload == "oracle_fixtures":
        assert layers["lm.kl_calls"] == 3 * (3 + 1)
        assert layers["hilbert.measure_failures"] == 1
        assert tally.failed == 3
