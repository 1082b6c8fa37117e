"""The optimizer's machine-pick walk against the two-path reference.

``_pick_compute_machines`` walks the caller's preference, then the
rest of the compute pool, and relaxes its filters only when the walk
finds nothing.  The property pins it to the pick it replaced
(``tests.sched.reference.reference_pick``: a bounded walk falling back
to a full sort of the crash-filtered pool) over random pools, and
checks the one thing the reference did not promise: the walk builds
no lazy machine it does not place.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AdaptivityConfig, SchedulerConfig
from repro.errors import PlanningError
from repro.grid.machine import Machine
from repro.grid.registry import ResourceRegistry
from repro.planner.optimizer import _pick_compute_machines
from repro.sim.environment import Environment
from repro.workloads import DemoGrid, DemoGridSpec, Q1
from tests.sched.reference import reference_pick


@dataclasses.dataclass(frozen=True)
class Pool:
    """A drawn placement problem over compute machines ``c1..cn``
    plus a non-compute data host ``dh`` and coordinator ``coord``."""

    compute: tuple
    lazy: frozenset
    crashed: frozenset
    data_hosts: frozenset
    coordinator: str
    exclude: frozenset
    machine_order: tuple | None
    degree: int | None

    def registry(self) -> ResourceRegistry:
        env = Environment()
        registry = ResourceRegistry()
        registry.add_machine(Machine(env, "dh"), compute=False)
        registry.add_machine(Machine(env, "coord"), compute=False)
        for name in self.compute:
            if name in self.lazy:
                registry.add_machine_spec(
                    name, lambda name=name: Machine(env, name))
            else:
                machine = Machine(env, name)
                if name in self.crashed:
                    machine.crash()
                registry.add_machine(machine)
        return registry

    def pick(self, pick_fn, registry):
        try:
            return pick_fn(registry, set(self.data_hosts), self.coordinator,
                           self.degree, self.machine_order, self.exclude)
        except PlanningError as error:
            return ("PlanningError", str(error))


@st.composite
def pools(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    compute = tuple(f"c{index}" for index in range(1, count + 1))
    crashed = draw(st.sets(st.sampled_from(compute)))
    # A crash needs the machine object, so only live machines are lazy.
    lazy = draw(st.sets(st.sampled_from(compute))) - crashed
    data_hosts = draw(st.sets(st.sampled_from(compute + ("dh",))))
    coordinator = draw(st.sampled_from(compute + ("coord",)))
    exclude = draw(st.sets(st.sampled_from(compute + ("dh",))))
    machine_order = None
    if draw(st.booleans()):
        names = compute + ("dh", "coord")
        ranked = draw(st.permutations(names))
        machine_order = tuple(ranked[:draw(st.integers(0, len(names)))])
    degree = draw(st.one_of(st.none(),
                            st.integers(min_value=1, max_value=count + 1)))
    return Pool(compute, frozenset(lazy), frozenset(crashed),
                frozenset(data_hosts), coordinator, frozenset(exclude),
                machine_order, degree)


@given(pool=pools())
@settings(max_examples=400, deadline=None)
def test_walk_matches_the_reference_pick(pool):
    registry = pool.registry()
    built_before = {name for name in pool.compute
                    if registry.is_materialized(name)}
    chosen = pool.pick(_pick_compute_machines, registry)
    assert chosen == pool.pick(reference_pick, pool.registry())
    built = {name for name in pool.compute
             if registry.is_materialized(name)} - built_before
    placed = set(chosen) if isinstance(chosen, list) else set()
    assert built <= placed


def test_short_preference_builds_only_the_placed_machines():
    """A candidate budget below the degree used to fall back to a full
    sort that built every lazy machine; the walk builds ``degree``."""
    spec = DemoGridSpec(compute_machines=50, sequences_cardinality=60,
                        interactions_cardinality=90, sequence_length=12)
    outcomes = []
    for lazy in (True, False):
        grid = DemoGrid(dataclasses.replace(spec, lazy_machines=lazy))
        scheduler = grid.scheduler(SchedulerConfig(placement_candidates=1))
        session = scheduler.submit(
            Q1, adaptivity=AdaptivityConfig.disabled(), degree=2)
        scheduler.drain()
        registry = grid.context.registry
        built = [name for name in grid.compute_machines
                 if registry.is_materialized(name)]
        outcomes.append((session.machines, session.response_ms, built))
    (lazy_machines, lazy_ms, lazy_built), (eager_machines, eager_ms, _) = (
        outcomes)
    assert lazy_built == ["compute-1", "compute-2"]
    assert lazy_machines == eager_machines
    assert lazy_ms == eager_ms
