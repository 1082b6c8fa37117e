"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import catalog, spans, stats, workloads  # noqa: E402


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- span arithmetic --------------------------------------------------------

def test_self_time_on_nested_tree_with_generator_resumptions():
    clock = ManualClock()
    recorder = spans.SpanRecorder(clock=clock)
    names = {name: recorder.name_id(name, layer) for name, layer in (
        ("A", "outer"), ("B", "inner"), ("G", "gen"), ("C", "inner"))}

    def body():
        # First resumption covers [5, 6]; the second [7, 9] and holds a
        # child span C over [7.5, 8].
        clock.now = 6.0
        yield "first"
        clock.now = 7.5
        child = recorder.open(names["C"], -1)
        clock.now = 8.0
        recorder.close(child)
        clock.now = 9.0
        yield "second"

    generator = spans.TimedGenerator(body(), names["G"], -1, recorder)
    root = recorder.open(names["A"], -1)          # A opens at 0
    clock.now = 1.0
    inner = recorder.open(names["B"], -1)
    clock.now = 4.0
    recorder.close(inner)                          # B: [1, 4]
    clock.now = 5.0
    assert next(generator) == "first"              # G: [5, 6]
    clock.now = 7.0
    assert generator.send(None) == "second"        # G: [7, 9]
    clock.now = 10.0
    recorder.close(root)                           # A: [0, 10]

    assert recorder.self_seconds() == {"A": 4.0, "B": 3.0, "G": 2.5,
                                       "C": 0.5}
    assert recorder.layer_self_seconds() == {"outer": 4.0, "inner": 3.5,
                                             "gen": 2.5}
    assert recorder.root_seconds() == 10.0
    assert sum(recorder.self_seconds().values()) == recorder.root_seconds()


def test_wrapped_generator_function_is_timed_per_resumption():
    clock = ManualClock()
    recorder = spans.SpanRecorder(clock=clock)

    def leaf():
        clock.now += 1.0
        return 7

    def inner():
        value = leaf_wrapped()
        clock.now += 2.0
        received = yield value
        clock.now += 3.0
        return received * 2

    leaf_wrapped = spans._wrap(leaf, recorder.name_id("leaf", "x"),
                               recorder, False, None)
    inner_wrapped = spans._wrap(inner, recorder.name_id("inner", "y"),
                                recorder, False, None)

    def outer():
        result = yield from inner_wrapped()
        return result

    generator = outer()
    assert len(recorder) == 0          # creating the generator is free
    assert next(generator) == 7
    with pytest.raises(StopIteration) as stop:
        generator.send(5)
    assert stop.value.value == 10
    # inner: resumed twice (2 s + leaf's 1 s, then 3 s); leaf: 1 s.
    assert recorder.self_seconds() == {"leaf": 1.0, "inner": 5.0}
    assert [recorder.parents[i] for i in range(len(recorder))] == [-1, 0, -1]


def test_inclusive_time_counts_nested_repeats_once():
    clock = ManualClock()
    recorder = spans.SpanRecorder(clock=clock)
    f = recorder.name_id("f", "x")
    outer = recorder.open(f, -1)
    clock.now = 1.0
    inner = recorder.open(f, -1)
    clock.now = 2.0
    recorder.close(inner)
    clock.now = 4.0
    recorder.close(outer)
    assert recorder.inclusive_seconds(["f"]) == 4.0


def test_instrumentation_is_undone():
    from repro.sim.resources import Cpu

    original = Cpu.__dict__["execute"]
    with spans.traced(spans.SpanRecorder()):
        assert Cpu.__dict__["execute"] is not original
    assert Cpu.__dict__["execute"] is original


def test_nested_route_batch_rows_are_counted_once():
    # WeightedRoundRobin.route_batch falling back to the base method must
    # count its rows once; a call with no route_batch around it counts.
    recorder = spans.SpanRecorder()

    def wrapped(policy, function):
        name = f"repro.engine.distribution:{policy}.route_batch"
        return spans._wrap(function, recorder.name_id(name, "engine"),
                           recorder, False, workloads.HOOKS[name])

    base = wrapped("DistributionPolicy", lambda policy, batch: None)
    weighted = wrapped("WeightedRoundRobin",
                       lambda policy, batch: base(policy, batch))
    weighted(None, [1, 2, 3])
    base(None, [4, 5])
    assert recorder.counts["rows_routed"] == 5


# -- the p95 rule -----------------------------------------------------------

@pytest.mark.parametrize("count, fraction", [
    (200, 0.95), (199, 0.90), (100, 0.90), (99, 0.75), (40, 0.75),
    (39, 0.50), (21, 0.50), (5, 0.50)])
def test_tail_percentile_needs_ten_samples_beyond(count, fraction):
    values = [float(value) for value in range(count)]
    chosen, value = stats.tail_percentile(values)
    assert chosen == fraction
    assert value == stats.percentile(values, fraction)
    if count >= 21:
        assert stats.samples_beyond(count, chosen) >= 10
        assert sum(1 for v in values if v > value) >= 10


def test_percentile_is_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0
    assert stats.percentile([1.0] * 19 + [100.0], 0.95) == 1.0


# -- seeds ------------------------------------------------------------------

SMALL_OPEN = dataclasses.replace(workloads.WORKLOADS["mq-perturbed"],
                                 queries=12)

SIMULATED = ("sim_response_ms", "normalised_response", "sim_p50_ms",
             "sim_p95_ms", "sim_throughput_qps")


def _fingerprint(measurement):
    return next(line for line in measurement.diagnostics
                if line.startswith("sim_fingerprint"))


def test_one_seed_repeats_and_two_seeds_differ():
    first = SMALL_OPEN.run(3, 0.0, trace=False)
    again = SMALL_OPEN.run(3, 0.0, trace=False)
    other = SMALL_OPEN.run(4, 0.0, trace=False)
    for measurement in (first, again, other):
        assert measurement.errors == []
        assert measurement.failed == 0
    assert ({key: first.metrics[key] for key in SIMULATED}
            == {key: again.metrics[key] for key in SIMULATED})
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)


def test_seed_changes_the_generated_inputs():
    paper = workloads.WORKLOADS["paper-q1-ws10x"]
    assert paper.spec(1, 0) == paper.spec(1, 0)
    assert paper.spec(1, 0) != paper.spec(2, 0)
    assert paper.spec(1, 0) != paper.spec(1, 1)
    fleet = dataclasses.replace(workloads.WORKLOADS["fleet-failover"],
                                queries=400)
    due = [1000.0 + 2500.0 * index for index in range(400)]
    assert len(fleet.crash_schedule(1, due)) == fleet.crashes
    assert fleet.crash_schedule(1, due) == fleet.crash_schedule(1, due)
    assert fleet.crash_schedule(1, due) != fleet.crash_schedule(2, due)
    arrivals = fleet.arrivals(fleet.grid(1))
    assert arrivals == fleet.arrivals(fleet.grid(1))
    assert arrivals != fleet.arrivals(fleet.grid(2))


def test_traced_pass_reproduces_the_untraced_one():
    measurement = SMALL_OPEN.run(5, 0.0, trace=True)
    assert measurement.errors == []
    declared = {metric.name for metric in catalog.PER_LAYER}
    assert declared <= set(measurement.metrics)
    assert measurement.metrics["trace.overhead"] > 1.0
    assert measurement.metrics["sim.kernel_self_ms"] > 0.0


# -- the declaration --------------------------------------------------------

def test_benchmark_json_matches_the_catalog():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in declared["end_to_end"]] == [
        (metric.name, metric.unit, metric.better)
        for metric in catalog.END_TO_END]
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in declared["per_layer"]] == [
        (metric.name, metric.unit, metric.better)
        for metric in catalog.PER_LAYER]
    assert ([entry["name"] for entry in declared["workloads"]]
            == list(workloads.WORKLOADS))
    for metric in catalog.PER_LAYER:
        assert set(metric.on) <= set(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mq-perturbed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
