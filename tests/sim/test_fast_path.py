"""Regression tests for the kernel's allocation-avoiding disciplines.

Resume pooling, inline resume and same-timestamp coalescing must not
change the firing order or the clock.  These tests pin the edge cases
the order oracle in ``test_kernel_order.py`` cannot isolate — batched
entries interacting with ``run(until=...)``, ``peek``, and empty
combinator sequences.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def _trace_run():
    """A workload mixing same-time and distinct-time wakeups."""
    env = Environment()
    trace = []

    def worker(env, name, delays):
        for delay in delays:
            yield env.timeout(delay)
            trace.append((env.now, name))

    env.process(worker(env, "a", [1.0, 1.0, 3.0]))
    env.process(worker(env, "b", [1.0, 1.0, 3.0]))
    env.process(worker(env, "c", [2.0, 3.0]))
    env.run()
    return trace, env.events_scheduled, env.now


def test_fast_path_trace_identical_to_legacy():
    # The trace, event count and clock the straight (uncoalesced,
    # unpooled) kernel produced for this workload.
    assert _trace_run() == (
        [(1.0, "a"), (1.0, "b"), (2.0, "c"), (2.0, "a"), (2.0, "b"),
         (5.0, "c"), (5.0, "a"), (5.0, "b")], 14, 5.0)


def test_coalesced_same_time_events_fire_in_schedule_order():
    env = Environment()
    trace = []

    def body(env, name):
        yield env.timeout(5.0)
        trace.append(name)

    for name in ("first", "second", "third"):
        env.process(body(env, name))
    env.run()
    assert trace == ["first", "second", "third"]


def test_events_scheduled_counts_coalesced_events_individually():
    env = Environment()

    def body(env):
        yield env.timeout(1.0)

    for _ in range(4):
        env.process(body(env))
    env.run()
    # Per process: bootstrap, timeout and completion, although the four
    # bootstraps, timeouts and completions each share one heap entry.
    assert env.events_scheduled == 12


def test_run_until_event_stops_mid_coalesced_batch():
    env = Environment()
    first = env.timeout(2.0, value="a")
    target = env.timeout(2.0, value="b")
    last = env.timeout(2.0, value="c")
    # All three coalesce into one same-timestamp entry; run() must
    # still stop exactly at the target, leaving the rest pending.
    assert env.run(until=target) == "b"
    assert first.processed and target.processed
    assert not last.processed
    env.run()
    assert last.processed


def test_peek_reports_now_while_batch_pending():
    env = Environment()

    def body(env):
        yield env.timeout(4.0)

    env.process(body(env))
    env.process(body(env))
    env.run(until=1.0)
    assert env.peek() == 4.0
    env.step()  # pops the coalesced entry, fires the first member
    assert env.now == 4.0
    assert env.peek() == 4.0  # the second member is still pending
    env.run()  # drains the batch and the process completion events
    assert env.peek() == float("inf")


def test_empty_all_of_succeeds_immediately():
    env = Environment()
    trace = []

    def body(env):
        value = yield env.all_of([])
        trace.append((env.now, value))

    env.process(body(env))
    env.run()
    assert trace == [(0.0, [])]


def test_empty_any_of_rejected_at_construction():
    env = Environment()
    with pytest.raises(SimulationError, match="at least one event"):
        env.any_of([])


def test_resume_pool_reuse_is_invisible():
    env = Environment()
    results = []

    def child(env, value):
        yield env.timeout(1.0)
        return value

    def parent(env):
        # Sequential children churn through pooled resume events; each
        # wait must still deliver its own child's value.
        for i in range(50):
            value = yield env.process(child(env, i))
            results.append(value)

    env.process(parent(env))
    env.run()
    assert results == list(range(50))
