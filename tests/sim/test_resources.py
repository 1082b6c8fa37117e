"""Unit tests for the FIFO CPU resource."""

import pytest

from repro.errors import SimulationError
from repro.sim import Cpu, Environment


def test_single_task_takes_work_over_speed():
    env = Environment()
    cpu = Cpu(env, speed=2.0)

    def body(env):
        yield cpu.execute(10.0)
        return env.now

    proc = env.process(body(env))
    env.run()
    assert proc.value == pytest.approx(5.0)


def test_tasks_are_served_fifo():
    env = Environment()
    cpu = Cpu(env)
    finish = {}

    def body(env, name, work):
        yield cpu.execute(work)
        finish[name] = env.now

    env.process(body(env, "first", 3.0))
    env.process(body(env, "second", 2.0))
    env.run()
    assert finish == {"first": 3.0, "second": 5.0}


def test_cpu_tracks_utilisation():
    env = Environment()
    cpu = Cpu(env)

    def body(env):
        yield cpu.execute(4.0)
        yield env.timeout(6.0)

    env.process(body(env))
    env.run()
    assert env.now == pytest.approx(10.0)
    assert cpu.utilisation() == pytest.approx(0.4)
    assert cpu.tasks_completed == 1


def test_zero_work_completes_immediately():
    env = Environment()
    cpu = Cpu(env)

    def body(env):
        yield cpu.execute(0.0)
        return env.now

    proc = env.process(body(env))
    env.run()
    assert proc.value == 0.0


def test_negative_work_rejected():
    env = Environment()
    cpu = Cpu(env)
    with pytest.raises(SimulationError):
        cpu.execute(-1.0)


def test_invalid_speed_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Cpu(env, speed=0.0)


def test_queue_length_counts_waiting_and_running():
    env = Environment()
    cpu = Cpu(env)

    def submit(env):
        cpu.execute(5.0)
        cpu.execute(5.0)
        cpu.execute(5.0)
        yield env.timeout(1.0)
        return cpu.queue_length

    proc = env.process(submit(env))
    env.run(until=proc)
    assert proc.value == 3


def test_each_task_is_its_own_completion_event():
    """An idle server starts a task at once and schedules exactly one
    event per task: its completion, whose waiters run in the same
    dispatch."""
    env = Environment()
    cpu = Cpu(env)
    tasks = [cpu.execute(work) for work in (2.0, 3.0, 0.0)]
    assert tasks[0].started_at == 0.0
    assert cpu.queue_length == 3
    env.run()
    assert env.events_scheduled == 3
    assert [task.value for task in tasks] == [2.0, 3.0, 0.0]
    assert env.now == 5.0 and cpu.busy_time == 5.0
