"""CI fleet smoke: a seeded 200-machine / 500-query run, twice over.

Two contracts, cheap enough for every CI run:

* **Determinism at fleet shape.**  The digest printed on stdout —
  terminal accounting, DES event count, a hash of the full trace
  timeline — is a pure function of the seed, so running the script
  twice and ``diff``-ing the outputs proves the lazy multi-site
  scheduler replays byte-identically.
* **Flat per-query host cost.**  With ``--budget`` the same workload
  runs at 50 machines and at 200; the host milliseconds spent per
  admitted query may at most double across the 4x fleet growth
  (timings go to stderr so stdout stays diffable).
* **Placement builds only what it places.**  The compute machines
  built by the run are exactly the compute machines some session was
  placed on.
* **A heap bounded by the queries in flight.**  With ``--budget`` the
  GC-tracked objects still alive after the drain (and a collection)
  may average at most 200 per settled query: a query's outcome and its
  services' constant-size shells, not its fragments and logs.

Run: ``PYTHONPATH=src python benchmarks/fleet_smoke.py [--budget]``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import sys
import time

from repro.config import AdaptivityConfig, SchedulerConfig
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

MACHINES = 200
SITES = 8
QUERIES = 500
BUDGET_BASELINE_MACHINES = 50
#: Host cost per query may at most double from 50 to 200 machines.
HOST_COST_RATIO_BOUND = 2.0
#: GC-tracked objects a settled query may leave behind, on average.
RETAINED_OBJECTS_BOUND = 200

SPEC = DemoGridSpec(sequences_cardinality=30, interactions_cardinality=45,
                    sequence_length=8, seed=7, lazy_machines=True)


def run_fleet(machines: int, sites: int, queries: int):
    """One deterministic fleet workload; returns (digest, host_s,
    GC-tracked objects retained per settled query)."""
    spec = dataclasses.replace(SPEC, compute_machines=machines,
                               sites=sites)
    grid = DemoGrid(spec, metrics_enabled=False)
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=16, max_queued=queries,
        placement_candidates=8))
    gc.collect()
    baseline = len(gc.get_objects())
    started = time.perf_counter()
    for index in range(queries):
        scheduler.submit((Q1, Q2)[index % 2],
                         adaptivity=AdaptivityConfig.disabled(), degree=2)
    outcomes = scheduler.drain()
    host_s = time.perf_counter() - started
    gc.collect()
    retained = (len(gc.get_objects()) - baseline) / queries
    timeline = hashlib.sha256()
    for event in grid.context.tracer.events:
        timeline.update(repr((event.timestamp, event.category,
                              event.source, event.description,
                              event.data)).encode())
    stats = scheduler.statistics()
    registry = grid.context.registry
    built = {name for name in grid.compute_machines
             if registry.is_materialized(name)}
    placed = {name for session in scheduler.sessions
              for name in session.machines if registry.is_compute(name)}
    # Placement may build only what it places: a pick that builds a
    # lazy machine and then rejects it shows up as a built-only name.
    assert built == placed, (
        f"built but never placed: {sorted(built - placed)}; "
        f"placed but not built: {sorted(placed - built)}")
    digest = {
        "machines": machines,
        "sites": sites,
        "admitted": stats.admitted,
        "completed": stats.completed,
        "failed": stats.failed,
        "outcomes": len(outcomes),
        "events": grid.context.env.events_scheduled,
        "timeline_sha": timeline.hexdigest(),
        "materialized": len(built),
    }
    return digest, host_s, retained


def main(argv):
    digest, host_s, retained = run_fleet(MACHINES, SITES, QUERIES)
    assert digest["completed"] + digest["failed"] == digest["admitted"]
    assert digest["outcomes"] == QUERIES
    assert 0 < digest["materialized"] < MACHINES
    for key in sorted(digest):
        print(f"{key}: {digest[key]}")
    per_query_ms = 1000.0 * host_s / QUERIES
    print(f"host per-query ms: {per_query_ms:.3f}", file=sys.stderr)
    if "--budget" in argv:
        print(f"retained objects per settled query: {retained:.1f} "
              f"(bound {RETAINED_OBJECTS_BOUND})", file=sys.stderr)
        assert retained <= RETAINED_OBJECTS_BOUND, (
            f"{retained:.1f} GC-tracked objects per settled query "
            f"outlive the drain (bound {RETAINED_OBJECTS_BOUND})")
        base_digest, base_s, _retained = run_fleet(
            BUDGET_BASELINE_MACHINES, SITES, QUERIES)
        assert (base_digest["completed"] + base_digest["failed"]
                == base_digest["admitted"])
        base_ms = 1000.0 * base_s / QUERIES
        ratio = per_query_ms / max(base_ms, 0.001)
        print(f"host per-query ms at {BUDGET_BASELINE_MACHINES} "
              f"machines: {base_ms:.3f} (ratio {ratio:.2f}, bound "
              f"{HOST_COST_RATIO_BOUND})", file=sys.stderr)
        assert ratio <= HOST_COST_RATIO_BOUND, (
            f"per-query host cost grew {ratio:.2f}x from "
            f"{BUDGET_BASELINE_MACHINES} to {MACHINES} machines "
            f"(bound {HOST_COST_RATIO_BOUND})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
