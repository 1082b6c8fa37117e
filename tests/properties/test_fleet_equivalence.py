"""Property tests: the fleet-scale machinery is invisible at small scale.

The sharded scheduler state (incremental placement index, incremental
breaker set, heartbeat wheel, lazy machines) must not change a single
bit of today's small-grid behaviour:

* **Single implicit site degenerates.**  A grid that never names
  sites gets one flat machine tier whose order equals the full
  least-loaded sort (pinned in ``tests/sched/test_fleet_index.py``); the scheduler-equivalence
  suite then pins the whole timeline against the direct path.  Here
  we pin the remaining axes end to end: the heartbeat wheel against
  goldens of the retired per-query monitor, candidate budget vs the
  full order, and lazy vs eager machine construction.
* **Reproducible at fleet shape.**  Multi-site lazy grids driven
  through the scheduler replay bit-for-bit under the same seed.

The grid seed honours ``REPRO_TEST_SEED`` so CI exercises these
properties under more than one simulated world.
"""

import dataclasses
import hashlib
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, MachineCrash, RetryPolicy
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.dqp.gdqs import QueryFailed
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
SPEC = DemoGridSpec(sequences_cardinality=120,
                    interactions_cardinality=180,
                    sequence_length=20, compute_machines=3,
                    seed=SEED)

RETRY = RetryPolicy(max_attempts=3, backoff_base_ms=100.0,
                    backoff_cap_ms=1000.0)

slow_settings = settings(max_examples=6, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


FT = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=200.0,
                          failure_timeout_ms=700.0, max_recoveries=2)

#: Goldens of the per-query heartbeat monitor the wheel replaced,
#: captured on the last commit that had both (where the two runs were
#: asserted identical): seed -> (rows sha, timeline sha, response ms).
SINGLE_CRASHY_GOLDEN = {
    0: ("46e5e7c3925e5af5", "28a10f25de8549ec", 1853.7793599999998),
    1: ("b7e17da522ff4497", "28a10f25de8549ec", 1853.7793599999998),
}
#: seed -> (first rows sha, second rows sha, timeline sha, first
#: response ms, second response ms).
SEQUENTIAL_GOLDEN = {
    0: ("1dedbbe8c1962931", "6b3aeb4190a7f636", "dd0c0288ea4feff4",
        1016.0598399999997, 1050.0714399999997),
    1: ("a5a11e3df8025941", "ab45df606f5b1156", "ba06d8e7692892f6",
        1016.0598399999997, 1064.5742399999986),
}


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def timeline_of(grid):
    return [(event.timestamp, event.category, event.source,
             event.description, event.data)
            for event in grid.context.tracer.events]


def run_single_crashy(seed):
    """One fault-tolerant query through a mid-run machine crash."""
    chaos = ChaosConfig.lossy(crashes=(
        MachineCrash("compute-2", at_ms=900.0),))
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed,
                                        spare_machines=1),
                    fault_tolerance=FT, chaos=chaos)
    result = grid.run(Q1, AdaptivityConfig.disabled())
    return grid, result


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_wheel_identical_to_legacy_monitor_for_one_query(seed):
    # With one fault-tolerant query in flight the wheel ticks exactly
    # when the per-query monitor did: same recovery timeline, same
    # result, same response time.
    grid, result = run_single_crashy(seed)
    assert (sha(result.values()), sha(timeline_of(grid)),
            result.response_time_ms) == SINGLE_CRASHY_GOLDEN[seed]


def run_sequential(seed):
    """Two fault-tolerant queries back to back (no overlap)."""
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed),
                    fault_tolerance=FT)
    first = grid.run(Q1, AdaptivityConfig.disabled())
    second = grid.run(Q2, AdaptivityConfig.disabled())
    return grid, first, second


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_wheel_identical_for_sequential_queries(seed):
    # The wheel drains between queries and respawns for the second
    # one, reproducing the per-query monitor's timeline.
    grid, first, second = run_sequential(seed)
    assert (sha(first.values()), sha(second.values()),
            sha(timeline_of(grid)), first.response_time_ms,
            second.response_time_ms) == SEQUENTIAL_GOLDEN[seed]


def run_overlapping(seed):
    chaos = ChaosConfig.lossy(crashes=(
        MachineCrash("compute-2", at_ms=900.0),))
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed),
                    fault_tolerance=FT, chaos=chaos)
    scheduler = grid.scheduler(SchedulerConfig(max_concurrent=4,
                                               retry=RETRY))
    for query in (Q1, Q2, Q1, Q2):
        scheduler.submit(query, adaptivity=AdaptivityConfig.disabled(),
                         degree=2)
    outcomes = scheduler.drain()
    return grid, outcomes


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_wheel_overlapping_queries_replay_bit_for_bit(seed):
    # Overlapping queries share the wheel's phase (a documented, still
    # deterministic divergence from per-query timers), so the promise
    # is exact reproducibility plus total terminal accounting.
    first_grid, first = run_overlapping(seed)
    second_grid, second = run_overlapping(seed)
    assert (first_grid.context.env.events_scheduled
            == second_grid.context.env.events_scheduled)
    assert timeline_of(first_grid) == timeline_of(second_grid)
    assert len(first) == len(second) == 4
    for left, right in zip(first, second):
        assert type(left) is type(right)
        if isinstance(left, QueryFailed):
            assert left == right
        else:
            assert sorted(left.values()) == sorted(right.values())


def run_budgeted(seed, candidates):
    grid = DemoGrid(dataclasses.replace(SPEC, seed=seed))
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=2, placement_candidates=candidates))
    for query in (Q1, Q2, Q1):
        scheduler.submit(query, adaptivity=AdaptivityConfig.disabled(),
                         degree=2)
    outcomes = scheduler.drain()
    return grid, outcomes


@given(seed=st.sampled_from([0, 1]),
       candidates=st.sampled_from([3, 5, 64]))
@slow_settings
def test_covering_candidate_budget_identical_to_full_order(seed,
                                                           candidates):
    # Any budget covering the compute pool emits the same candidate
    # prefix as the unbounded order, so the whole run is bit-identical.
    full_grid, full = run_budgeted(seed, None)
    capped_grid, capped = run_budgeted(seed, candidates)
    assert (full_grid.context.env.events_scheduled
            == capped_grid.context.env.events_scheduled)
    assert timeline_of(full_grid) == timeline_of(capped_grid)
    for left, right in zip(full, capped):
        assert sorted(left.values()) == sorted(right.values())


def run_fleet(seed):
    """A lazy 16-machine / 4-site grid under concurrent load."""
    spec = dataclasses.replace(SPEC, seed=seed, compute_machines=16,
                               sites=4, lazy_machines=True)
    grid = DemoGrid(spec)
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=4, placement_candidates=8))
    for query in (Q1, Q2, Q1, Q2, Q1):
        scheduler.submit(query, adaptivity=AdaptivityConfig.disabled(),
                         degree=2)
    outcomes = scheduler.drain()
    return grid, scheduler, outcomes


@given(seed=st.sampled_from([0, 1]))
@slow_settings
def test_lazy_multisite_fleet_replays_bit_for_bit(seed):
    first_grid, first_sched, first = run_fleet(seed)
    second_grid, second_sched, second = run_fleet(seed)
    assert (first_grid.context.env.events_scheduled
            == second_grid.context.env.events_scheduled)
    assert timeline_of(first_grid) == timeline_of(second_grid)
    assert len(first) == len(second) == 5
    for left, right in zip(first, second):
        assert sorted(left.values()) == sorted(right.values())
    materialized = {
        name for name in first_grid.compute_machines
        if first_grid.context.registry.is_materialized(name)}
    # Placement spread across sites but never touched the whole fleet.
    assert materialized
    assert materialized < set(first_grid.compute_machines)
    assert first_sched.statistics().completed == 5
    assert second_sched.statistics().completed == 5
