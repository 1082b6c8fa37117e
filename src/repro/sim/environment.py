"""The discrete-event simulation environment and process model.

:class:`Environment` owns the simulation clock and the pending-event
queue.  :class:`Process` drives a Python generator: each ``yield``
hands back an :class:`~repro.sim.events.Event` to wait on, and the
generator resumes with the event's value once it fires.  A generator's
``return`` value becomes the process's own event value, so processes
compose (``result = yield env.process(sub())``).

The simulation is fully deterministic: ties in time are broken by
scheduling priority, then by insertion order.

Kernel disciplines
------------------

The kernel applies three allocation-avoiding disciplines.  None of them
changes the order in which events fire, which is lexicographic in
``(time, priority, schedule order)`` (property-tested in
``tests/sim/test_kernel_order.py``):

* **Slim heap entries with same-timestamp coalescing.**  Heap entries
  are ``[when, (priority << 48) | seq, payload]`` lists.  When a
  normal-priority event is scheduled for a timestamp that already has
  an open entry, it is appended to that entry's payload instead of
  being pushed separately.  Coalescing is two-tier, matched to where
  merges actually happen: immediate (``delay == 0``) schedules — the
  bursts emitted by store settlement and batch completion, which are
  the overwhelming majority of merges — hit a single *open entry at
  now* register (one attribute test, no hashing), while future
  timestamps (same-deadline heartbeat/monitor timeouts) go through a
  small per-timestamp map consulted only on scheduling and closed the
  moment the clock reaches the timestamp.  Merging is order-preserving
  because heap order is lexicographic ``(when, priority, seq)`` and a
  merged event's sequence number is by construction larger than
  everything already in the entry and smaller than everything
  scheduled later; nothing can sort *between* two occupants of the
  same entry.  :meth:`step` drains a coalesced payload one event per
  call, so ``run(until=event)`` stops exactly at the awaited event.
* **A free list for process resume events.**  The bootstrap/resume
  events that drive generators are internal to the kernel — no user
  code ever holds one — so they are recycled through a small pool
  instead of being allocated per yield.
* **An inline resume for already-processed targets.**  When a process
  yields an event that has already been processed and a resume event
  would provably be the very next event popped (no callbacks left in
  the current dispatch, no batch being drained, no queue entry at the
  current instant), the generator resumes in place instead of bouncing
  through the queue.

Two disciplines bound what the kernel retains.  A processed event
drops its callback list, and a finished process drops its generator,
so nothing that once waited on a long-lived event stays reachable
through it.  :meth:`Environment.cancel` withdraws a settled timer
lazily: the event stays in the heap, is skipped when popped, and an
entry holding only withdrawn events does not advance the clock.

:attr:`Environment.events_scheduled` counts the events passed to
:meth:`Environment.schedule` and :meth:`Environment.schedule_at`; once
the queue drains it equals the number of dispatches plus
:attr:`Environment.events_cancelled`.
"""

from __future__ import annotations

import heapq
import typing

from repro.errors import SimulationError
from repro.sim.events import (
    _UNSET,
    AllOf,
    AnyOf,
    Event,
    PRIORITY_NORMAL,
    Timeout,
)

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]

#: Bits reserved for the insertion sequence number inside a packed heap
#: key; priorities occupy the bits above.  2**48 schedule() calls is
#: far beyond any simulation here (the largest benchmark schedules
#: ~1e5 events).
_SEQ_BITS = 48

#: Upper bound on pooled resume events.  The pool only needs to cover
#: the number of processes resumed between steps, which is small; the
#: cap keeps a pathological spawn burst from pinning memory.
_RESUME_POOL_LIMIT = 256


class _ResumeEvent(Event):
    """Internal pooled event that bootstraps/resumes a process.

    Never visible to user code: it exists only to carry a value through
    the queue into ``Process._resume``, after which the dispatcher
    resets and recycles it.
    """

    __slots__ = ()


class Process(Event):
    """An event that completes when its generator returns.

    The generator is started on the next kernel step (at the current
    simulation time), not synchronously, so a process may wait on
    events created after it was spawned within the same timestamp.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str | None = None) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        env._acquire_resume(self._resume).succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value of the fired event."""
        env = self.env
        while True:
            self._target = None
            try:
                if trigger.ok:
                    target = self._generator.send(trigger.value)
                else:
                    target = self._generator.throw(trigger.value)
            except StopIteration as stop:
                self._generator = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._generator = None
                self.fail(exc)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, "
                    "expected an Event")
            if target.env is not env:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another "
                    "environment")
            self._target = target
            if not target._processed:
                target.callbacks.append(self._resume)
                return
            # The event already fired; resume through the kernel so the
            # process never outruns the event queue.
            if (not env._mid_dispatch and env._batch is None
                    and (not env._queue or env._queue[0][0] > env._now)):
                # A resume event would be the very next one popped:
                # resume in place instead of a queue round trip.
                trigger = target
                continue
            resume = env._acquire_resume(self._resume)
            if target.ok:
                resume.succeed(target.value)
            else:
                resume.fail(target.value)
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Environment:
    """A deterministic discrete-event simulation environment.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(5.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 5.0 and proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Pending entries: ``[when, packed_key, payload]`` where the
        #: payload is an Event or, for a coalesced entry, a list of
        #: events in scheduling order.
        self._queue: list[list] = []
        self._seq = 0
        #: The open heap entry at the current instant — the merge
        #: target for ``delay == 0`` normal-priority schedules.
        #: Cleared when its entry is popped and whenever the clock
        #: advances.
        self._open_now: list | None = None
        #: Open heap entries at *future* timestamps, the merge targets
        #: for ``delay > 0`` normal-priority schedules (same-deadline
        #: heartbeat/monitor timeouts).  A timestamp's slot is closed
        #: when the clock reaches it.  Only normal-priority events
        #: coalesce — urgent ones are pushed individually, which is
        #: order-safe because an urgent event sorts before every
        #: occupant of a normal-priority entry at the same instant,
        #: merged or not.
        self._open: dict[float, list] = {}
        #: Remainder of a coalesced payload being drained one event per
        #: step() call, the index of the next event in it, and the heap
        #: key of the entry it came from.
        self._batch: list | None = None
        self._batch_index = 0
        self._batch_key = 0
        #: True while step() has callbacks left to run for the current
        #: event (guards the inline resume).
        self._mid_dispatch = False
        self._resume_pool: list[_ResumeEvent] = []
        #: Withdrawn events: all of them, and those still in the heap.
        self._cancelled = 0
        self._cancelled_pending = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Events passed to :meth:`schedule` — the kernel's work measure.

        Batch-granular execution exists to shrink this number; the
        perf benchmark reports it per run.  Coalesced events count
        individually, so once the queue drains this equals the number
        of dispatches.
        """
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Scheduled events withdrawn by :meth:`cancel`, never dispatched."""
        return self._cancelled

    # -- scheduling ----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Queue a triggered event to be processed ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self.schedule_at(event, self._now + delay, priority)

    def schedule_at(self, event: Event, when: float,
                    priority: int = PRIORITY_NORMAL) -> None:
        """Queue a triggered event to be processed at time ``when``.

        The absolute form keeps a timestamp computed elsewhere exact:
        ``now + (when - now)`` need not round back to ``when``.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < {self._now}")
        self._seq += 1
        if priority == PRIORITY_NORMAL:
            if when == self._now:
                entry = self._open_now
                if entry is not None:
                    payload = entry[2]
                    if type(payload) is list:
                        payload.append(event)
                    else:
                        entry[2] = [payload, event]
                    return
                entry = [when,
                         (PRIORITY_NORMAL << _SEQ_BITS) | self._seq, event]
                self._open_now = entry
            else:
                open_entries = self._open
                entry = open_entries.get(when)
                if entry is not None:
                    payload = entry[2]
                    if type(payload) is list:
                        payload.append(event)
                    else:
                        entry[2] = [payload, event]
                    return
                entry = [when,
                         (PRIORITY_NORMAL << _SEQ_BITS) | self._seq, event]
                open_entries[when] = entry
            heapq.heappush(self._queue, entry)
        else:
            if self._batch is not None and when == self._now:
                # The urgent event sorts before the rest of the batch
                # being drained: hand the rest back to the heap.
                self._requeue_batch()
            heapq.heappush(
                self._queue,
                [when, (priority << _SEQ_BITS) | self._seq, event])

    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled event: it will never be dispatched.

        Meant for timers whose race is already decided (a call's
        deadline once the reply won).  Deletion is lazy: the heap entry
        stays until popped, and an entry holding only withdrawn events
        is discarded without advancing the clock.  Cancelling an event
        that was processed or already withdrawn does nothing.
        """
        if event._processed or event._cancelled:
            return
        if not event.triggered:
            raise SimulationError(f"cannot cancel unscheduled {event!r}")
        event._cancelled = True
        self._cancelled += 1
        self._cancelled_pending += 1

    def _live(self, payload):
        """``payload`` without its withdrawn events, or None if nothing
        is left; the withdrawn ones leave the pending count."""
        if type(payload) is list:
            live = [event for event in payload if not event._cancelled]
            self._cancelled_pending -= len(payload) - len(live)
            if not live:
                return None
            return live if len(live) > 1 else live[0]
        if payload._cancelled:
            self._cancelled_pending -= 1
            return None
        return payload

    def _close(self, entry: list) -> None:
        """Stop merging into a heap entry discarded without dispatch."""
        if entry is self._open_now:
            self._open_now = None
        elif self._open.get(entry[0]) is entry:
            del self._open[entry[0]]

    def _requeue_batch(self) -> None:
        """Push the undrained rest of the current batch back onto the
        heap under its entry's original key, which still sorts before
        every event scheduled since the entry was popped."""
        rest = self._batch[self._batch_index:]
        self._batch = None
        self._batch_index = 0
        heapq.heappush(self._queue, [self._now, self._batch_key,
                                     rest if len(rest) > 1 else rest[0]])

    def _acquire_resume(self, callback) -> _ResumeEvent:
        """A fresh-or-recycled internal process resume event."""
        pool = self._resume_pool
        event = pool.pop() if pool else _ResumeEvent(self)
        event.callbacks.append(callback)
        return event

    # -- event factories ----------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: str | None = None) -> Process:
        """Spawn a process driving ``generator``; returns its event."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """An event succeeding when all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """An event succeeding when the first of ``events`` triggers."""
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._batch is not None:
            return self._now
        queue = self._queue
        while self._cancelled_pending and queue:
            entry = queue[0]
            payload = self._live(entry[2])
            if payload is not None:
                entry[2] = payload
                break
            heapq.heappop(queue)
            self._close(entry)
        if not queue:
            return float("inf")
        return queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event, if it was not withdrawn."""
        batch = self._batch
        if batch is not None:
            index = self._batch_index
            event = batch[index]
            index += 1
            if index == len(batch):
                self._batch = None
                self._batch_index = 0
            else:
                self._batch_index = index
            if event._cancelled:
                self._cancelled_pending -= 1
                return
            self._dispatch(event)
            return
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        entry = heapq.heappop(self._queue)
        if self._cancelled_pending:
            payload = self._live(entry[2])
            if payload is None:
                # Only withdrawn events: the clock does not move.
                self._close(entry)
                return
            entry[2] = payload
        when = entry[0]
        if when > self._now:
            # The clock advances: the reached timestamp is closed for
            # merging on both tiers (even when the popped entry is not
            # the open one — nothing can schedule at ``when`` with a
            # positive delay anymore).
            self._now = when
            self._open_now = None
            if self._open:
                self._open.pop(when, None)
        elif entry is self._open_now:
            self._open_now = None
        elif when < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        payload = entry[2]
        if type(payload) is list:
            # Coalesced entry: dispatch its first event now and drain
            # the rest one per subsequent step() call, exactly as if
            # each had been popped individually.
            self._batch = payload
            self._batch_index = 1
            self._batch_key = entry[1]
            self._dispatch(payload[0])
            return
        self._dispatch(payload)

    def _dispatch(self, event: Event) -> None:
        """Fire one event's callbacks, mark it processed, drop them.

        Callbacks are iterated in place: every callback appended
        post-trigger is guarded by a ``processed`` check
        (``Process._resume``, ``_observe``), so no copy of the list is
        needed, and none is left to run once the list has been walked.
        """
        callbacks = event.callbacks
        event._processed = True
        n = len(callbacks)
        if n == 1:
            self._mid_dispatch = False
            callbacks[0](event)
        elif n:
            last = n - 1
            self._mid_dispatch = True
            for i in range(n):
                if i == last:
                    self._mid_dispatch = False
                callbacks[i](event)
        else:
            self._mid_dispatch = False
            if not event._ok:
                # A failed event nobody waits on would silently swallow
                # the error; surface it instead.
                raise event._value
        callbacks.clear()
        if type(event) is _ResumeEvent:
            # Internal-only event: no user code holds a reference, so
            # it can be reset and recycled.
            event._value = _UNSET
            event._ok = None
            event._processed = False
            pool = self._resume_pool
            if len(pool) < _RESUME_POOL_LIMIT:
                pool.append(event)

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time
        (run up to and including that instant), or an event (run until
        it has been processed; returns its value).
        """
        if isinstance(until, Event):
            stop_event = until
            while not stop_event._processed:
                if self._batch is None and not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event fired (deadlock?)")
                self.step()
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon} < now {self._now}")
            while (self._batch is not None
                   or (self._queue and self._queue[0][0] <= horizon)):
                self.step()
            self._now = horizon
            self._open_now = None
            return None
        while self._batch is not None or self._queue:
            self.step()
        return None
