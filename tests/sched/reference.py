"""Reference placement implementations the fast paths are pinned to.

None of this runs in the program: each function is a deliberately
naive restatement of a contract that the scheduler and the optimizer
implement incrementally, kept here as a test oracle.

* :func:`reference_pick` — the two-path compute-machine pick the
  optimizer used before its single walk: a bounded walk over the
  caller's preference, falling back to a full sort of the
  crash-filtered compute pool.  Its crash checks build lazy machines.
* :func:`least_loaded_order` — the full sort the fleet index replaced:
  candidates ordered stably by committed shares.
* :func:`site_loads` — each indexed site's mean committed shares,
  recomputed from the machines themselves.
"""

from __future__ import annotations

import typing

from repro.errors import PlanningError
from repro.grid.registry import ResourceRegistry


def _bounded_pick(registry, data_hosts, coordinator, degree,
                  machine_order, exclude):
    """The first ``degree`` valid preferred machines, or None when
    the walk cannot prove it equals the full sort below."""
    chosen: list[str] = []
    seen: set[str] = set()
    for name in machine_order:
        if name in seen:
            return None
        seen.add(name)
        if not registry.is_compute(name):
            continue
        machine = registry.peek(name)
        if machine is not None and machine.is_crashed:
            continue
        if name in exclude:
            continue
        if name in data_hosts or name == coordinator:
            continue
        chosen.append(name)
        if len(chosen) == degree:
            return chosen
    return None


def reference_pick(registry: ResourceRegistry, data_hosts: set[str],
                   coordinator: str, degree: int | None,
                   machine_order: typing.Sequence[str] | None = None,
                   exclude: typing.Container[str] = ()) -> list[str]:
    """Compute machines for a plan, by bounded walk then full sort."""
    if degree is not None and degree >= 1:
        walk = (machine_order if machine_order is not None
                else registry.compute_machines())
        fast = _bounded_pick(registry, data_hosts, coordinator, degree,
                             walk, exclude)
        if fast is not None:
            return fast
    candidates = [name for name in registry.compute_machines()
                  if not registry.machine(name).is_crashed]
    if exclude:
        spared = [name for name in candidates if name not in exclude]
        if spared:
            candidates = spared
    preferred = [name for name in candidates
                 if name not in data_hosts and name != coordinator]
    chosen = preferred or candidates
    if machine_order is not None:
        rank = {name: position
                for position, name in enumerate(machine_order)}
        chosen = sorted(chosen,
                        key=lambda name: rank.get(name, len(rank)))
    if degree is not None:
        if degree < 1:
            raise PlanningError(f"degree must be >= 1: {degree}")
        if degree > len(chosen):
            raise PlanningError(
                f"degree {degree} exceeds available machines {len(chosen)}")
        chosen = chosen[:degree]
    if not chosen:
        raise PlanningError("no compute machines available")
    return chosen


def least_loaded_order(registry: ResourceRegistry,
                       candidates: typing.Sequence[str]) -> list[str]:
    """Candidates sorted by committed shares, stably."""
    indexed = list(enumerate(candidates))
    indexed.sort(key=lambda pair: (
        registry.machine(pair[1]).committed_shares, pair[0]))
    return [name for _index, name in indexed]


def site_loads(index) -> dict[str, float]:
    """Mean committed shares over each site's indexed machines."""
    registry = index.registry
    loads = {}
    for site in registry.sites():
        members = [name for name in registry.site_members(site)
                   if name in index]
        if members:
            loads[site] = sum(registry.machine(name).committed_shares
                              for name in members) / len(members)
    return loads
