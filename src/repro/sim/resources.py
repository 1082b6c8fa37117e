"""CPU resource model.

Each simulated machine owns one :class:`Cpu` per core (the evaluation
machines in the paper are single-CPU Linux boxes, so the default is a
single FIFO server).  Work is expressed in *work units*: milliseconds
of CPU time on a machine of speed 1.0.  The actual service time of a
task is ``work / speed``.

The server schedules one event per task: a task that starts service
is itself scheduled at its completion time, with the server's
completion bookkeeping as its first callback, so the task's waiters
run in the same dispatch.  An idle server starts a submitted task at
once.
"""

from __future__ import annotations

import collections

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event


class CpuTask(Event):
    """A queued unit of CPU work; fires when the work completes.

    The value is the service time actually consumed (useful for
    self-monitoring operators, which report measured costs).
    """

    __slots__ = ("work", "label", "queued_at", "started_at")

    def __init__(self, env: Environment, work: float, label: str) -> None:
        super().__init__(env)
        self.work = work
        self.label = label
        self.queued_at = env.now
        self.started_at: float | None = None


class Cpu:
    """A FIFO single-server CPU.

    ``speed`` is a positive factor: a speed of 2.0 halves service
    times.  Utilisation statistics are kept so experiments can report
    busy/idle breakdowns.
    """

    def __init__(self, env: Environment, speed: float = 1.0) -> None:
        self.env = env
        if speed <= 0:
            raise SimulationError(f"cpu speed must be positive: {speed}")
        self.speed = float(speed)
        self._pending: collections.deque[CpuTask] = collections.deque()
        #: True from a burst's first task until the queue runs dry,
        #: freeze waits included.
        self._serving = False
        self._frozen_until = 0.0
        self._closed = False
        self.busy_time = 0.0
        self.tasks_completed = 0
        #: Optional telemetry hook: an object with ``sample(value)``
        #: called with the queue length at every enqueue and
        #: completion.  Must be a pure recorder (no events, no CPU
        #: charges) so attaching one cannot change the simulation.
        self.queue_sampler = None

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting or in service."""
        return len(self._pending) + (1 if self._serving else 0)

    def execute(self, work: float, label: str = "work") -> CpuTask:
        """Submit ``work`` units; the returned event fires on completion."""
        if work < 0:
            raise SimulationError(f"negative cpu work: {work}")
        task = CpuTask(self.env, work, label)
        self._pending.append(task)
        if self.queue_sampler is not None:
            self.queue_sampler.sample(self.queue_length)
        if not self._serving and not self._closed:
            self._serving = True
            self._serve_next()
        return task

    def freeze_until(self, until: float) -> None:
        """Stall the server: no task starts service before ``until``.

        Queued and newly submitted work is retained and drains once the
        freeze expires — a transient stall, not a crash.
        """
        self._frozen_until = max(self._frozen_until, until)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Permanently close the server gate (machine crash).

        Queued and future tasks never start service and their events
        never fire, so processes waiting on them suspend harmlessly —
        crucially *without* scheduling anything, which keeps
        ``env.run()`` terminating (an infinite ``freeze_until`` would
        park the server behind an unbounded timeout event instead).
        The task already in service completes: its event is on the
        heap and fail-stop is modelled at the service layer, where the
        host's endpoints are already deactivated.
        """
        self._closed = True

    def _on_thaw(self, _event: Event) -> None:
        """A freeze-wait timeout expired; re-check and keep serving."""
        self._serve_next()

    def _on_task_done(self, task: CpuTask) -> None:
        """First callback of a finishing task: account it, serve on."""
        self.busy_time += task._value
        self.tasks_completed += 1
        if self.queue_sampler is not None:
            self.queue_sampler.sample(self.queue_length - 1)
        self._serve_next()

    def _serve_next(self) -> None:
        """Start the head of the queue, or park the server.

        Called with ``_serving`` set.  A started task is scheduled at
        its completion time; a freeze schedules one thaw timeout; an
        empty queue ends the burst; a closed gate parks the server
        forever without scheduling anything.
        """
        env = self.env
        if self._closed:
            return
        pending = self._pending
        if not pending:
            self._serving = False
            return
        if self._frozen_until > env._now:
            timeout = env.timeout(self._frozen_until - env._now)
            timeout.callbacks.append(self._on_thaw)
            return
        task = pending.popleft()
        task.started_at = env._now
        duration = task.work / self.speed
        task._ok = True
        task._value = duration
        # Waiters may have subscribed while the task was queued; the
        # server's bookkeeping and the next start still come first.
        task.callbacks.insert(0, self._on_task_done)
        env.schedule(task, duration)

    def utilisation(self, horizon: float | None = None) -> float:
        """Fraction of time busy over ``[0, horizon]`` (default: now)."""
        horizon = self.env.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
