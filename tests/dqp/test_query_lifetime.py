"""Query-scoped lifetimes: a settled query releases what it created.

Once a query's outcome is collected and its evaluators have exited,
its fragments, exchanges, recovery logs and evaluator processes must
be unreachable; only the outcome and constant-size service shells
remain.  The shells answer late messages exactly as the wound-down
services would have: each test here runs its scenario twice, once as
shipped and once with the release switched off, and requires the same
replies, the same times and the same CPU charges.
"""

import gc
import weakref

from repro.chaos import ChaosConfig
from repro.config import AdaptivityConfig, SchedulerConfig
from repro.dqp.gqes import GQES
from repro.experiments.harness import engine_config_for
from repro.sim import Environment
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24)

ADAPTIVE_R1 = AdaptivityConfig(response="R1", decision_latency_ms=100.0)


def evaluator_processes() -> list:
    return [obj for obj in gc.get_objects()
            if type(obj).__name__ == "Process"
            and str(getattr(obj, "name", "")).startswith("eval:")]


def keep_everything(monkeypatch) -> None:
    """The shipped behaviour minus the release: the reference run."""
    monkeypatch.setattr(GQES, "release", lambda self: None)


def test_settled_query_state_is_collected():
    """Fragments, recovery logs and evaluator processes of a settled
    query die with it, although the grid and its services live on."""
    grid = DemoGrid(SPEC, engine_config=engine_config_for(ADAPTIVE_R1))
    perturb_join_sleep(grid, 15.0)
    scheduler = grid.scheduler(SchedulerConfig(max_concurrent=2))
    sessions = [scheduler.submit(query, adaptivity=ADAPTIVE_R1)
                for query in (Q1, Q2)]
    grid.context.env.run(until=1.0)
    fragments, logs = [], []
    for session in sessions:
        for gqes in session.handle.runtime.all_gqes():
            for fragment in gqes.fragments.values():
                fragments.append(weakref.ref(fragment))
                for producer in fragment.producers:
                    logs.extend(weakref.ref(log)
                                for log in producer._logs if log is not None)
    assert fragments and logs and evaluator_processes()
    del session, gqes, fragment, producer
    scheduler.drain()
    gc.collect()
    assert all(session.outcome.values() for session in sessions)
    assert all(ref() is None for ref in fragments)
    assert all(ref() is None for ref in logs)
    assert evaluator_processes() == []
    assert all(session.handle.runtime is None for session in sessions)


def test_processed_events_and_finished_processes_hold_nothing():
    env = Environment()
    seen = []
    event = env.timeout(1.0)
    event.callbacks.append(seen.append)

    def body():
        yield event
        return "done"

    process = env.process(body())
    env.run()
    assert seen == [event] and event.value is None
    assert event.callbacks == [] and process.callbacks == []
    assert process.value == "done" and process._generator is None


def late_progress_calls(monkeypatch, release: bool):
    """Progress and processed calls reaching a settled query's GQESs,
    issued by its Responder after the drain: (replies, released)."""
    if not release:
        keep_everything(monkeypatch)
    grid = DemoGrid(SPEC)
    perturb_ws_cost(grid, 8.0)
    env = grid.context.env
    handle = grid.processor.gdqs.submit(
        Q1, AdaptivityConfig(decision_latency_ms=100.0))
    runtime = handle.runtime
    env.run(until=handle.done)
    env.run()
    task = runtime.balancing_task
    responder = runtime.responder
    replies = []

    def probe():
        ask = {"subplan_id": task.subplan_id}
        for endpoint in task.producer_endpoints:
            reports = yield from responder.call(endpoint, "progress", ask,
                                                timeout_ms=1000.0)
            replies.append((env.now, endpoint, reports))
        for endpoint in task.instance_endpoints:
            total = yield from responder.call(endpoint, "processed", ask,
                                              timeout_ms=1000.0)
            replies.append((env.now, endpoint, total))

    env.run(until=env.process(probe()))
    released = [gqes.released for gqes in runtime.all_gqes()]
    return replies, released


def test_late_progress_calls_get_the_same_replies(monkeypatch):
    shipped, released = late_progress_calls(monkeypatch, release=True)
    assert all(released)
    monkeypatch.undo()
    reference, kept = late_progress_calls(monkeypatch, release=False)
    assert not any(kept)
    assert shipped == reference
    assert any(reports for _when, _endpoint, reports in shipped)


def deadline_run(monkeypatch, release: bool):
    """Three Q1s aborted at their deadline one after another, so data
    still in flight reaches aborted queries: everything the grid
    charged and recorded, and how many late buffers hit a shell."""
    if not release:
        keep_everything(monkeypatch)
    late = []
    on_data = GQES.on_data

    def counting(self, message):
        late.append(self.released)
        on_data(self, message)

    monkeypatch.setattr(GQES, "on_data", counting)
    grid = DemoGrid(SPEC)
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=1, max_queued=4, query_timeout_ms=500.0))
    sessions = [scheduler.submit(Q1, adaptivity=AdaptivityConfig.disabled())
                for _ in range(3)]
    scheduler.drain()
    context = grid.context
    cpus = {machine.name: (machine.cpu.busy_time,
                           machine.cpu.tasks_completed)
            for machine in context.registry.materialized_machines()}
    timeline = [(event.timestamp, event.category, event.source,
                 event.description) for event in context.tracer.events]
    outcomes = [(session.started_at, session.completed_at,
                 session.outcome.cause) for session in sessions]
    return (cpus, timeline, outcomes, context.env.now), sum(late)


def test_late_data_after_a_deadline_abort_is_charged_the_same(monkeypatch):
    shipped, late_to_shells = deadline_run(monkeypatch, release=True)
    assert late_to_shells > 0
    monkeypatch.undo()
    reference, _ = deadline_run(monkeypatch, release=False)
    assert shipped == reference


def test_adaptive_q2_leaves_no_dead_timer_tail():
    """A settled query's call deadlines are withdrawn: draining the
    grid ends at its last real event, not ~10 s of idle timers later."""
    grid = DemoGrid(SPEC)
    perturb_join_sleep(grid, 10.0)
    scheduler = grid.scheduler(SchedulerConfig(max_concurrent=1))
    session = scheduler.submit(Q2, adaptivity=AdaptivityConfig(
        response="R1", decision_latency_ms=100.0))
    scheduler.drain()
    assert session.outcome.stats.adaptations_accepted >= 1
    env = grid.context.env
    assert env.now - session.completed_at < 1000.0
    assert env.events_cancelled > 0


def test_delivered_sends_leave_no_retry_timer():
    """Under chaos every data buffer races its send-retry timer; once
    the delivery wins the timer is withdrawn, so a run whose sends all
    arrive drains at its outcome, not one retry timeout later."""
    grid = DemoGrid(SPEC, chaos=ChaosConfig.lossy(delay_probability=0.5,
                                                  delay_ms=5.0))
    scheduler = grid.scheduler(SchedulerConfig(max_concurrent=1))
    session = scheduler.submit(Q2, adaptivity=AdaptivityConfig.disabled())
    scheduler.drain()
    env = grid.context.env
    assert grid.chaos.send_retries == 0
    assert env.events_cancelled > 0
    assert env.now - session.completed_at < 10.0
