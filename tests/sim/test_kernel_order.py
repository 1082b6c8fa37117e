"""An order oracle for the DES kernel.

Random schedules — zero and repeated delays, both priorities, events
with several waiters, processes yielding already-processed events and
spawning children — run under a recording environment that checks
every dispatch against the kernel's contract: the dispatched event is
the lexicographic minimum of ``(time, priority, schedule order)`` over
everything pending.  Coalesced entries, pooled resume events and
inline resumes are host-side disciplines, so none of them may show in
that order.  An inline resume stands for a resume event scheduled at
``(now, normal)``; it is legal only when that event would have been
the very next one dispatched.  A withdrawn (cancelled) timer leaves
the pending set at once: it is never dispatched, and the clock never
reaches a timestamp that held only withdrawn timers.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.sim import Environment
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT, Event


class RecordingEnvironment(Environment):
    """Checks each dispatch against the pending set it was drawn from."""

    def __init__(self) -> None:
        super().__init__()
        #: id(event) -> (time, priority, schedule order) while queued.
        self.pending: dict[int, tuple] = {}
        self.dispatches = 0
        #: Time of the latest dispatch.
        self.last_dispatch = 0.0
        #: Callbacks still to run in the current dispatch.
        self.remaining = 0

    def schedule_at(self, event, when, priority=PRIORITY_NORMAL):
        super().schedule_at(event, when, priority)
        self.pending[id(event)] = (when, priority, self._seq)

    def cancel(self, event):
        super().cancel(event)
        if event._cancelled:
            self.pending.pop(id(event), None)

    def _dispatch(self, event):
        key = self.pending.pop(id(event))
        assert key[0] == self._now
        assert all(key < other for other in self.pending.values()), (
            key, sorted(self.pending.values())[:3])
        self.dispatches += 1
        self.last_dispatch = self._now
        callbacks = event.callbacks
        last = len(callbacks) - 1
        for index, callback in enumerate(callbacks):
            callbacks[index] = self._tracked(callback, last - index)
        super()._dispatch(event)

    def _tracked(self, callback, remaining):
        def run(event):
            self.remaining = remaining
            callback(event)
        return run

    def inline_resume_allowed(self) -> bool:
        """Whether a resume event scheduled now would dispatch next."""
        return (self.remaining == 0
                and all(key[0] > self._now
                        for key in self.pending.values()))


def urgent(env, delay):
    """A triggered event at urgent priority (a Timeout's construction
    with the other priority)."""
    event = Event(env)
    event._ok = True
    event._value = None
    env.schedule(event, delay=delay, priority=PRIORITY_URGENT)
    return event


DELAYS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5])
OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("urgent"), DELAYS),
    st.tuples(st.just("shared"), st.integers(0, 3)),
    st.tuples(st.just("processed"), st.just(0)),
    st.tuples(st.just("spawn"), DELAYS),
    st.tuples(st.just("cancel"), DELAYS),
    st.tuples(st.just("cancel_shared"), st.integers(0, 3)),
)
PROGRAMS = st.lists(st.lists(OPS, min_size=1, max_size=6),
                    min_size=1, max_size=4)
RUN_CALLS = st.lists(st.one_of(
    st.tuples(st.just("time"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    st.tuples(st.just("event"), st.integers(0, 3)),
), max_size=4)


def run_program(programs, run_calls):
    env = RecordingEnvironment()
    shared = [env.timeout(delay) for delay in (0.0, 1.0, 1.0, 2.5)]
    #: A second set nobody waits on, withdrawn by "cancel_shared".
    spare = [env.timeout(delay) for delay in (0.0, 1.0, 1.0, 3.5)]
    done = env.event()
    done.succeed()
    inline_resumes = []

    def wait(target):
        """Yield ``target``; check the resume if it happened inline."""
        dispatches = env.dispatches
        allowed = env.inline_resume_allowed()
        value = yield target
        if env.dispatches == dispatches:
            inline_resumes.append(env.now)
            assert allowed, "inline resume overtook a pending event"
        return value

    def child(delay):
        yield env.timeout(delay)
        return delay

    def body(ops):
        for op, arg in ops:
            if op == "timeout":
                yield from wait(env.timeout(arg))
            elif op == "urgent":
                yield from wait(urgent(env, arg))
            elif op == "shared":
                yield from wait(shared[arg])
            elif op == "processed":
                yield from wait(done)
            elif op == "cancel":
                env.cancel(env.timeout(arg))
            elif op == "cancel_shared":
                env.cancel(spare[arg])
            else:
                assert (yield from wait(env.process(child(arg)))) == arg

    processes = [env.process(body(ops)) for ops in programs]
    horizon = 0.0
    for kind, arg in run_calls:
        if kind == "time":
            horizon = env.now + arg
            env.run(until=horizon)
            assert env.now == horizon
            assert all(key[0] > horizon for key in env.pending.values())
        else:
            env.run(until=shared[arg])
            assert shared[arg].processed
    env.run()
    assert all(process.processed for process in processes)
    assert not env.pending
    # Withdrawn timers never move the clock.
    assert env.now == max(env.last_dispatch, horizon)
    return env, inline_resumes


oracle_settings = settings(max_examples=200, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@given(programs=PROGRAMS, run_calls=RUN_CALLS)
@oracle_settings
def test_dispatch_order_is_lexicographic(programs, run_calls):
    run_program(programs, run_calls)


@given(programs=PROGRAMS, run_calls=RUN_CALLS)
@oracle_settings
def test_events_scheduled_equals_dispatches_once_drained(programs, run_calls):
    env, _inline = run_program(programs, run_calls)
    assert env.events_scheduled == env.dispatches + env.events_cancelled


def test_inline_resume_is_exercised():
    """The oracle sees inline resumes, not only queue round trips."""
    _env, inline = run_program([[("processed", 0), ("timeout", 1.0),
                                 ("processed", 0)]], [])
    assert inline == [0.0, 1.0]


def test_grid_run_events_scheduled_equals_dispatches(monkeypatch):
    """End to end: a perturbed adaptive Q1 dispatches every event it
    schedules, except the call deadlines it withdrew."""
    from repro.config import AdaptivityConfig
    from repro.workloads import DemoGrid, DemoGridSpec, Q1, perturb_ws_cost

    dispatches = 0
    dispatch = Environment._dispatch

    def counting(self, event):
        nonlocal dispatches
        dispatches += 1
        dispatch(self, event)

    monkeypatch.setattr(Environment, "_dispatch", counting)
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=150,
                                 interactions_cardinality=220,
                                 sequence_length=24))
    perturb_ws_cost(grid, 10.0)
    grid.run(Q1, AdaptivityConfig(assessment="A1", response="R2"))
    env = grid.context.env
    env.run()
    assert env.events_cancelled > 0
    assert env.events_scheduled == dispatches + env.events_cancelled
