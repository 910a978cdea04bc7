"""Reference (pre-batching) simulation kernel — benchmark baseline only.

This is a frozen copy of ``repro.sim.kernel`` as it stood before the
event-batched hot loop landed: one event popped per ``step()``, a stale
sweep in ``run()`` *and* again in ``step()``, per-event ``getattr``
staleness checks, and per-event telemetry guards in ``Process._resume``.

``benchmarks/test_e22_kernel.py`` drives identical workloads through this
module and through the live kernel to (a) assert the two produce the same
event ordering and (b) record the events/sec baseline that the >= 5x
speedup gate in ``BENCH_kernel.json`` is measured against. Nothing under
``src/`` may import this module.

The design is a compact generator-based process simulator:

* :class:`Environment` owns the virtual clock and the event heap.
* :class:`Event` is a one-shot occurrence; callbacks run when it triggers.
* :class:`Process` wraps a generator. The generator *yields* events (for
  example :meth:`Environment.timeout`) and is resumed when they trigger.
  A process is itself an event that triggers when the generator returns.
* :class:`Condition` (via :meth:`Environment.all_of` / :meth:`any_of`)
  composes events.

Processes may be interrupted (:meth:`Process.interrupt`), which raises
:class:`repro.errors.Interrupt` inside the generator; this is how the DfMS
implements stop/pause of long-run flows.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import Interrupt, SimError, SimStopped

__all__ = ["Environment", "Event", "Timeout", "Process", "Condition"]

#: Sentinel for "event has not yet been given a value".
_PENDING = object()


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, is *triggered* exactly once with either a value
    (:meth:`succeed`) or an exception (:meth:`fail`), and then invokes its
    callbacks in registration order when the environment processes it.

    Events (and their kernel subclasses) are allocated millions of times in
    the scale benchmarks, so they declare ``__slots__``; ``defused`` is a
    slot too, assigned lazily on failure paths and read with ``getattr``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if self._ok is None:
            raise SimError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into any process waiting on this event.
        """
        if not isinstance(exception, BaseException):
            raise SimError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        #: set by waiters to acknowledge the failure was handled
        self.defused = False
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of virtual time in the future.

    A timeout can be :meth:`cancel`\\ led or :meth:`reschedule`\\ d while it
    is still pending. Both are lazy: the superseded heap entry stays in the
    queue but is recognized as stale (its scheduled time no longer matches
    :attr:`when`) and discarded without running callbacks or advancing the
    clock. This is what lets a service keep one persistent timer and move
    it around instead of spawning a throwaway process per change.

    Only cancel or reschedule timeouts that no process is waiting on: a
    process suspended on a cancelled timeout is never resumed.
    """

    __slots__ = ("delay", "_when")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._when = env._now + delay
        env._schedule(self, delay=delay)

    @property
    def when(self) -> Optional[float]:
        """Virtual time this timeout fires at, or ``None`` once cancelled."""
        return self._when

    @property
    def cancelled(self) -> bool:
        return self._when is None

    def cancel(self) -> None:
        """Prevent the timeout from firing; its heap entry dies lazily."""
        if self.processed:
            raise SimError("cannot cancel an already-processed timeout")
        self._when = None

    def reschedule(self, delay: float) -> None:
        """Move a pending timeout to ``delay`` seconds from now."""
        if self.processed:
            raise SimError("cannot reschedule an already-processed timeout")
        if delay < 0:
            raise SimError(f"negative timeout delay: {delay!r}")
        self.delay = delay
        self._when = self.env._now + delay
        self.env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """A running coroutine over the simulation.

    Wraps a generator that yields :class:`Event` instances. The process is
    itself an event: it triggers with the generator's return value, or fails
    with the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_target", "_spawned_at", "_tspan")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise SimError(f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._spawned_at = env._now
        #: Telemetry span context this process runs under. Spawners copy
        #: their own span (or their own _tspan) here so work started in
        #: the child — transfers, nested spawns — parents correctly. Dies
        #: with the process, so no cleanup and no id()-reuse hazard.
        self._tspan = None
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a dead process is an error; interrupting a process from
        itself is not allowed.
        """
        if not self.is_alive:
            raise SimError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimError("a process cannot interrupt itself")
        # Unsubscribe from the event we were waiting on, so the process is
        # not resumed a second time when that event eventually triggers.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self.env._active_process = self
        while True:
            try:
                if event is None or event._ok:
                    value = None if event is None else event._value
                    target = self._generator.send(value)
                else:
                    # Mark the failure as handled; we re-raise it inside
                    # the generator, which may catch it.
                    event.defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                t = self.env.telemetry
                if t is not None:
                    now = self.env._now
                    add_time, add_value = t.sim_process_lifetimes
                    add_time(now)
                    add_value(now - self._spawned_at)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.defused = False
                self.env._schedule(self)
                t = self.env.telemetry
                if t is not None:
                    now = self.env._now
                    add_time, add_value = t.sim_process_lifetimes
                    add_time(now)
                    add_value(now - self._spawned_at)
                break

            if not isinstance(target, Event):
                exc = SimError(f"process yielded a non-event: {target!r}")
                event = None
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    self.env._schedule(self)
                except BaseException as exc2:
                    self._ok = False
                    self._value = exc2
                    self.defused = False
                    self.env._schedule(self)
                break

            if target.callbacks is not None:
                # Target not yet processed: subscribe and suspend.
                target.callbacks.append(self._resume)
                self._target = target
                break
            # Target already processed: continue immediately with its value.
            event = target

        self.env._active_process = None


class Condition(Event):
    """Composite event: triggers when ``evaluate`` says enough children did.

    Use :meth:`Environment.all_of` / :meth:`Environment.any_of` rather than
    constructing directly. The value is a dict mapping each *triggered* child
    event to its value, in trigger order.
    """

    __slots__ = ("_events", "_evaluate", "_done", "_results")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 evaluate: Callable[[int, int], bool]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._done = 0
        self._results: dict = {}
        for event in self._events:
            if event.env is not env:
                raise SimError("condition mixes events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            # The condition already resolved without this child (e.g. an
            # any_of raced it). Nobody will ever inspect the child's
            # outcome now, so a late failure must be marked handled here —
            # otherwise an unrelated later step() re-raises it as an
            # un-waited failure.
            if not event._ok:
                event.defused = True
            return
        self._done += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._results[event] = event._value
        if self._evaluate(len(self._events), self._done):
            self.succeed(dict(self._results))


def _all_events(total: int, done: int) -> bool:
    return done == total


def _any_event(total: int, done: int) -> bool:
    return done >= 1


class Environment:
    """The simulation environment: virtual clock plus event heap.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock, in seconds.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Attached :class:`~repro.telemetry.core.Telemetry` session, or
        #: None (the default). The kernel and every subsystem holding this
        #: environment guard their instrumentation on this attribute.
        self.telemetry = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that triggers when *all* of ``events`` have succeeded."""
        return Condition(self, events, _all_events)

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that triggers when *any* of ``events`` has succeeded."""
        return Condition(self, events, _any_event)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        # Deliberately no telemetry here: this is the hottest line in the
        # repository. Telemetry.collect derives scheduled/fired counts
        # from _eid and the queue length instead.
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def _skip_stale(self) -> None:
        """Drop stale heap entries (cancelled/rescheduled timeouts) from the
        head of the queue without running callbacks or advancing the clock."""
        queue = self._queue
        while queue:
            time, _, _, event = queue[0]
            if event.callbacks is None or getattr(event, "_when", time) != time:  # dgf: noqa[DGF004]: intentional exact identity — a rescheduled timeout's _when either is this entry's float bit-for-bit or the entry is stale
                # Already processed (a reschedule duplicate), or a timeout
                # whose valid fire time moved away from this entry.
                heapq.heappop(queue)
            else:
                return

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none."""
        self._skip_stale()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next live event."""
        self._skip_stale()
        if not self._queue:
            raise SimStopped("no more events")
        self._now, _, _, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not getattr(event, "defused", True):
            # An un-waited-for failure: surface it instead of losing it.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        When ``until`` is given, the clock is advanced exactly to it even if
        the queue drains earlier.
        """
        if until is not None:
            if until < self._now:
                raise SimError(f"until={until} is in the past (now={self._now})")
            while self.peek() <= until:
                self.step()
            self._now = float(until)
            return
        while self._queue:
            self._skip_stale()
            if not self._queue:
                break
            self.step()

    def run_process(self, generator: Generator) -> Any:
        """Convenience: start ``generator`` as a process, run to completion,
        and return its result (raising if the process failed)."""
        proc = self.process(generator)
        while proc.is_alive:
            self.step()
        if not proc._ok:
            # We are the waiter: mark the failure handled so the pending
            # completion event does not re-raise on a later step()/run().
            proc.defused = True
            raise proc._value
        return proc._value
