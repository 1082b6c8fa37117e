"""The scheduling optimizer (GDQS compile stage).

Mirrors the static OGSA-DQP pipeline the paper builds on ([11]): the
query is "parsed, optimised, and scheduled employing intra-operator
parallelism".  Decisions made here:

* each scan runs on the machine hosting its Grid Data Service;
* the compute subplan (WS calls or the join) is partitioned across the
  registry's compute machines (optionally capped by ``degree``),
  excluding data hosts and the coordinator where possible;
* initial weights are proportional to the machines' nominal speeds
  (uniform for the paper's homogeneous testbed);
* joins get hash-bucket partitioning on the join key, stateless
  pipelines weighted round-robin.

The optimizer never participates in adaptation: once the plan is
deployed, rebalancing is fully decentralised (§2).
"""

from __future__ import annotations

import itertools
import typing

from repro.errors import PlanningError
from repro.grid.registry import ResourceRegistry
from repro.planner.logical import LogicalPlan, LogicalScan
from repro.planner.physical import (
    COMPUTE_SUBPLAN,
    FEED_SUBPLAN_PREFIX,
    PhysicalPlan,
    POLICY_HASH,
    POLICY_WRR,
    ComputeSubplan,
    ScanSubplan,
)

_query_ids = itertools.count(1)


def _pick_compute_machines(registry: ResourceRegistry,
                           data_hosts: set[str], coordinator: str,
                           degree: int | None,
                           machine_order: typing.Sequence[str] | None = None,
                           exclude: typing.Container[str] = ()
                           ) -> list[str]:
    """The first ``degree`` usable compute machines in preference order.

    One walk visits the names in ``machine_order`` first, then the rest
    of the compute pool in registry order, and stops once it holds
    ``degree`` machines (``None`` takes the whole pool).  Permanently
    crashed machines are never resources: a fragment deployed there
    would park behind a closed CPU gate forever.  Crash checks use
    :meth:`~ResourceRegistry.peek`, so the walk builds no lazy machine
    it then rejects.

    The walk first keeps off the data hosts, the coordinator and the
    ``exclude`` blacklist (the scheduler's retry path names the machine
    that failed the previous attempt).  Only a walk that finds nothing
    relaxes: data hosts and the coordinator are allowed while any
    non-blacklisted machine is alive, and the blacklist, being
    advisory, yields only when it covers every live machine.
    """
    if degree is not None and degree < 1:
        raise PlanningError(f"degree must be >= 1: {degree}")
    listed = dict.fromkeys(machine_order or ())

    def walk(keep: typing.Callable[[str], bool]) -> list[str]:
        chosen: list[str] = []
        unlisted = (name for name in registry.iter_compute_machines()
                    if name not in listed)
        for name in itertools.chain(listed, unlisted):
            if not registry.is_compute(name) or not keep(name):
                continue
            machine = registry.peek(name)
            if machine is not None and machine.is_crashed:
                continue
            chosen.append(name)
            if len(chosen) == degree:
                break
        return chosen

    def spared(name: str) -> bool:
        return name not in exclude

    def off_hosts(name: str) -> bool:
        return name not in data_hosts and name != coordinator

    chosen = (walk(lambda name: spared(name) and off_hosts(name))
              or walk(spared) or walk(off_hosts) or walk(lambda _: True))
    if degree is not None and degree > len(chosen):
        raise PlanningError(
            f"degree {degree} exceeds available machines {len(chosen)}")
    if not chosen:
        raise PlanningError("no compute machines available")
    return chosen


def _initial_weights(registry: ResourceRegistry,
                     machine_names: typing.Sequence[str]) -> tuple:
    """Weights proportional to nominal machine speed at plan time."""
    speeds = [registry.machine(name).cpu.speed for name in machine_names]
    total = sum(speeds)
    return tuple(speed / total for speed in speeds)


def _scan_subplan(logical_scan: LogicalScan, registry: ResourceRegistry,
                  port: int, key_position: int | None,
                  ordinal: int) -> ScanSubplan:
    metadata = registry.table(logical_scan.table_name)
    return ScanSubplan(
        subplan_id=f"{FEED_SUBPLAN_PREFIX}{ordinal}",
        table_name=logical_scan.table_name,
        machine_name=metadata.machine_name,
        target_port=port,
        key_position=key_position,
        row_bytes=logical_scan.schema.width_bytes,
        estimated_total=metadata.cardinality,
        filters=tuple(logical_scan.filters))


def optimize(logical: LogicalPlan, registry: ResourceRegistry,
             coordinator_machine: str, degree: int | None = None,
             query_id: str | None = None,
             machine_order: typing.Sequence[str] | None = None,
             exclude_machines: typing.Container[str] = ()
             ) -> PhysicalPlan:
    """Turn a logical plan into a deployable physical plan.

    ``machine_order`` expresses a caller preference over compute
    machines (most preferred first); the multi-query scheduler passes
    the least-loaded ordering so capped-degree sessions spread across
    the pool instead of piling onto the registry's first machines.
    ``exclude_machines`` is a best-effort blacklist (retry
    re-placement); crashed machines are always excluded.
    """
    data_hosts = {registry.table(scan.table_name).machine_name
                  for scan in logical.scans}
    compute_machines = _pick_compute_machines(
        registry, data_hosts, coordinator_machine, degree, machine_order,
        exclude_machines)
    weights = _initial_weights(registry, compute_machines)
    query_id = query_id or f"q{next(_query_ids)}"

    applies = tuple((apply.function_name, apply.argument_position)
                    for apply in logical.applies)
    for function_name, _pos in applies:
        if not registry.has_operation(function_name):
            raise PlanningError(f"unknown WS operation {function_name!r}")

    if logical.join is not None:
        join = logical.join
        scans = (
            _scan_subplan(join.build, registry, port=0,
                          key_position=join.build_key_position, ordinal=0),
            _scan_subplan(join.probe, registry, port=1,
                          key_position=join.probe_key_position, ordinal=1),
        )
        policy_kind = POLICY_HASH
        join_keys = (join.build_key_position, join.probe_key_position)
        estimated_output = registry.table(join.probe.table_name).cardinality
    else:
        scans = (_scan_subplan(logical.scans[0], registry, port=0,
                               key_position=None, ordinal=0),)
        policy_kind = POLICY_WRR
        join_keys = None
        estimated_output = registry.table(
            logical.scans[0].table_name).cardinality

    compute = ComputeSubplan(
        subplan_id=COMPUTE_SUBPLAN,
        machine_names=tuple(compute_machines),
        policy_kind=policy_kind,
        initial_weights=weights,
        join_keys=join_keys,
        applies=applies,
        project_positions=tuple(logical.project_positions),
        output_row_bytes=logical.output_schema.width_bytes,
        estimated_output=estimated_output)

    return PhysicalPlan(
        query_id=query_id,
        scans=scans,
        compute=compute,
        coordinator_machine=coordinator_machine,
        output_schema=logical.output_schema,
        logical=logical)
