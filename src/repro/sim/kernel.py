"""Discrete-event simulation kernel.

Everything "long-run" in this reproduction (ILM jobs spanning weekends,
multi-day archival schedules, years of provenance history) executes in
*virtual time* over this kernel, so experiments are deterministic and run in
milliseconds of wall time.

The design is a compact generator-based process simulator:

* :class:`Environment` owns the virtual clock and the event queues.
* :class:`Event` is a one-shot occurrence; callbacks run when it triggers.
* :class:`Process` wraps a generator. The generator *yields* events (for
  example :meth:`Environment.timeout`) and is resumed when they trigger.
  A process is itself an event that triggers when the generator returns.
* :class:`Condition` (via :meth:`Environment.all_of` / :meth:`any_of`)
  composes events.

Processes may be interrupted (:meth:`Process.interrupt`), which raises
:class:`repro.errors.Interrupt` inside the generator; this is how the DfMS
implements stop/pause of long-run flows.

Dispatch structure
------------------

The kernel is the floor under every benchmark in the repository, so the
hot path is organized around *batch-draining one timestamp at a time*
through three scheduling lanes (see ``docs/simulation-model.md``):

* ``_queue`` — a heap of *future* events ``(time, priority, eid, event)``;
* ``_current`` — a FIFO of events scheduled at exactly the current
  timestamp (``delay == 0`` cascades: process starts, ``succeed()``
  wake-ups, completions). These never pay heap cost: within a timestamp
  every heap entry predates every ``_current`` entry, so FIFO order *is*
  ``eid`` order;
* ``_urgent`` — a FIFO of priority-0 events (interrupts), drained before
  anything else at the current timestamp.

Observable event ordering is identical to a single heap ordered by
``(time, priority, eid)`` — ``benchmarks/test_e22_kernel.py`` checks this
against the frozen pre-batching kernel — but a same-time cascade costs
two deque operations instead of two ``O(log n)`` heap operations, and the
stale-entry sweep runs once per timestamp instead of twice per event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import Interrupt, SimError, SimStopped
from repro.sim.journal import Journal

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

    #: Only :class:`Timeout` can leave superseded entries in the heap
    #: (cancel/reschedule), so the dispatch loop checks ``_when`` only on
    #: classes that flip this class attribute — every other event skips
    #: the staleness test entirely.
    _maybe_stale = False

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
        if self._value is not _PENDING:
            raise SimError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined Environment._schedule for the (delay=0, priority=1) case:
        # a succeed is always a current-timestamp, normal-priority schedule,
        # and this is the single hottest call site in the repository.
        env = self.env
        env._eid += 1
        env._current.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into any process waiting on this event.
        """
        if not isinstance(exception, BaseException):
            raise SimError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        #: set by waiters to acknowledge the failure was handled
        self.defused = False
        # Inlined _schedule, same (delay=0, priority=1) case as succeed().
        env = self.env
        env._eid += 1
        env._current.append(self)
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

    _maybe_stale = True

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
        """Prevent the timeout from firing; its heap entry dies lazily.

        Cancelling an already-cancelled timeout is a no-op (the timeout
        simply stays cancelled); cancelling a *processed* timeout is an
        error. A cancelled timeout is not dead for good — see
        :meth:`reschedule`, which may revive it.
        """
        if self.processed:
            raise SimError("cannot cancel an already-processed timeout")
        self._when = None

    def reschedule(self, delay: float) -> None:
        """Move a pending timeout to ``delay`` seconds from now.

        **Contract:** rescheduling a *cancelled* timeout is legal and
        revives it — the timeout becomes pending again and fires ``delay``
        seconds from the current time. Cancel-then-reschedule is exactly
        how a service parks and later re-arms one persistent timer (the
        network engine's finish timer does this), so revival is part of
        the contract rather than an accident. The sequence
        ``reschedule()`` then :meth:`cancel` leaves the timeout cancelled:
        the *last* call wins. Only a timeout whose callbacks have already
        run (``processed``) is truly final; both methods reject it.
        """
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
        #: Telemetry span context this process runs under: the int id
        #: of a span (see ``Tracer.begin``), or None. Spawners copy their
        #: own span id (or their own _tspan) here so work started in the
        #: child — transfers, nested spawns — parents correctly. Dies
        #: with the process, so no cleanup.
        self._tspan = None
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a dead process is an error; interrupting a process from
        itself is not allowed. The interrupt event is scheduled at priority
        0, so it runs before every same-time priority-1 event — the kernel
        keeps these on a dedicated urgent FIFO rather than the heap.
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

    def _finalize(self, ok: bool, value: Any) -> None:
        """Record the generator's outcome and schedule the completion event.

        One shared exit path for every way a process can end (return,
        escape exception, non-event yield): sets the outcome, schedules
        this process-as-event, and stashes the lifetime sample when a
        telemetry session is attached — via the environment's hoisted
        ``_lifetimes`` pair of bound column appends, so a detached run
        pays a single attribute load here and nothing per event anywhere
        else.
        """
        self._ok = ok
        self._value = value
        if not ok:
            self.defused = False
        env = self.env
        # Inlined _schedule (delay=0, priority=1): completions always fire
        # on the current timestamp at normal priority.
        env._eid += 1
        env._current.append(self)
        lifetimes = env._lifetimes
        if lifetimes is not None:
            now = env._now
            add_time, add_value = lifetimes
            add_time(now)
            add_value(now - self._spawned_at)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event is None or event._ok:
                    target = generator.send(
                        None if event is None else event._value)
                else:
                    # Mark the failure as handled; we re-raise it inside
                    # the generator, which may catch it.
                    event.defused = True
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self._finalize(True, stop.value)
                break
            except BaseException as exc:
                self._finalize(False, exc)
                break

            if isinstance(target, Event):
                callbacks = target.callbacks
                if callbacks is not None:
                    # Target not yet processed: subscribe and suspend.
                    callbacks.append(self._resume)
                    self._target = target
                    break
                # Target already processed: continue immediately.
                event = target
                continue

            exc = SimError(f"process yielded a non-event: {target!r}")
            try:
                generator.throw(exc)
            except StopIteration as stop:
                self._finalize(True, stop.value)
            except BaseException as exc2:
                self._finalize(False, exc2)
            break

        env._active_process = None


class Condition(Event):
    """Composite event: triggers once ``needed`` children have succeeded.

    Use :meth:`Environment.all_of` / :meth:`Environment.any_of` rather than
    constructing directly. The value is a dict mapping each *triggered* child
    event to its value, in trigger order; the first child failure fails the
    condition.

    The per-child bookkeeping counts ``_check`` calls against ``needed``,
    so a child listed twice counts twice. Once triggered, ``_check`` never
    touches ``_results`` again, so handing out the accumulating dict
    itself is safe.
    """

    __slots__ = ("_needed", "_done", "_results")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 needed: int) -> None:
        super().__init__(env)
        events = list(events)
        self._needed = needed
        self._done = 0
        self._results: dict = {}
        for event in events:
            if event.env is not env:
                raise SimError("condition mixes events from different environments")
        if not events:
            self.succeed({})
            return
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            # The condition already resolved without this child (e.g. an
            # any_of raced it). Nobody will ever inspect the child's
            # outcome now, so a late failure must be marked handled here —
            # otherwise an unrelated later step() re-raises it as an
            # un-waited failure.
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._results[event] = event._value
        done = self._done + 1
        self._done = done
        if done >= self._needed:
            self.succeed(self._results)


class Environment:
    """The simulation environment: virtual clock plus event queues.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock, in seconds.
    """

    # Slots for the same reason events have them: ``_eid``, ``_current``
    # and ``_now`` are read/written once per scheduled event, and slot
    # access skips the instance-dict lookup on every one of those.
    __slots__ = ("_now", "_queue", "_current", "_urgent", "_eid",
                 "_active_process", "_telemetry", "_lifetimes",
                 "_sanitizer", "_journal", "__weakref__")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Future events: a heap of ``(time, priority, eid, event)``.
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Priority-1 events scheduled at exactly the current timestamp
        #: (``delay == 0`` cascades). FIFO order equals eid order because
        #: within one timestamp every heap entry predates every entry
        #: here — see ``_step_batch``.
        self._current: deque = deque()
        #: Priority-0 events (interrupts) at the current timestamp; always
        #: drained before ``_current`` and same-time heap entries.
        self._urgent: deque = deque()
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._telemetry = None
        #: Hoisted fast-path alias: the bound ``append``s of the attached
        #: session's process-lifetime sample columns, ``(time, value)``,
        #: or None when detached. ``Process._finalize`` reads only this,
        #: so a telemetry-off run never touches the session object on
        #: the hot path.
        self._lifetimes: Optional[tuple] = None
        #: Attached schedule sanitizer (duck-typed — the kernel imports
        #: nothing from repro.analysis). While set, ``_urgent`` and
        #: ``_current`` are the sanitizer's own deque subclasses: their
        #: ``popleft`` picks and records each dispatch, their ``append``
        #: records who scheduled what, and ``_step_batch`` calls only
        #: ``begin_batch(now)`` and ``end_batch()`` once per batch, so
        #: detached runs pay nothing per event.
        self._sanitizer = None
        self._journal: Optional[Journal] = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def telemetry(self):
        """Attached :class:`~repro.telemetry.core.Telemetry` session, or
        None (the default). The kernel and every subsystem holding this
        environment guard their instrumentation on this attribute."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, session) -> None:
        self._telemetry = session
        # Hoist the per-event "is telemetry attached" decision to attach
        # time: the kernel's only instrumentation point (process lifetime
        # samples in Process._finalize) goes through this alias.
        self._lifetimes = (None if session is None
                           else session.sim_process_lifetimes)

    @property
    def journal(self) -> Journal:
        """The deployment's run :class:`~repro.sim.journal.Journal`:
        engine events, DGMS operations and finished transfers of every
        producer on this environment, as rows (made at the first read)."""
        journal = self._journal
        if journal is None:
            journal = self._journal = Journal()
        return journal

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
        events = list(events)
        return Condition(self, events, len(events))

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that triggers when *any* of ``events`` has succeeded."""
        return Condition(self, events, 1)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        # Deliberately no telemetry here: this is the hottest line in the
        # repository. Telemetry.collect derives scheduled/fired counts
        # from _eid and the lane lengths instead.
        #
        # Three lanes. Future events go to the heap; a delay-0 event (or a
        # delay so small that now + delay == now in float arithmetic — it
        # must not jump ahead of earlier same-time heap entries) lands on
        # the current-timestamp FIFO; priority-0 interrupts land on the
        # urgent FIFO. The eid counter still advances for every lane so
        # heap ordering and telemetry's push count stay exact.
        eid = self._eid
        self._eid = eid + 1
        if delay:
            time = self._now + delay
            if time > self._now:
                heappush(self._queue, (time, priority, eid, event))
                return
        if priority:
            self._current.append(event)
        else:
            self._urgent.append(event)

    def _skip_stale(self) -> None:
        """Drop stale heap entries (cancelled/rescheduled timeouts) from the
        head of the queue without running callbacks or advancing the clock."""
        queue = self._queue
        while queue:
            head = queue[0]
            event = head[3]
            if event.callbacks is None or (
                    event._maybe_stale and event._when != head[0]):  # dgf: noqa[DGF004]: intentional exact identity — a rescheduled timeout's _when either is this entry's float bit-for-bit or the entry is stale
                # Already processed (a reschedule duplicate), or a timeout
                # whose valid fire time moved away from this entry.
                heappop(queue)
            else:
                return

    def _step_batch(self) -> bool:
        """Process every live event at the next timestamp; False if none.

        This is the kernel hot loop. One stale sweep and one clock write
        per timestamp, then a drain that interleaves the three lanes in
        exact ``(time, priority, eid)`` order: urgent first (priority 0),
        then same-time heap entries (older eids — they all predate this
        timestamp), then the current-timestamp FIFO, which also absorbs
        everything callbacks schedule at the running timestamp so a
        same-time cascade completes within its batch.

        An attached sanitizer brackets the drain with ``begin_batch(now)``
        and ``end_batch()``; the latter runs even when an exception
        escapes, which leaves the undrained events on their lanes for
        the next call.
        """
        urgent = self._urgent
        current = self._current
        queue = self._queue
        if not urgent and not current:
            self._skip_stale()
            if not queue:
                return False
            self._now = queue[0][0]
        now = self._now
        san = self._sanitizer
        if san is not None:
            san.begin_batch(now)
        pop_urgent = urgent.popleft
        pop_current = current.popleft
        try:
            # Phase 1: drain the urgent FIFO and the heap's same-time entries.
            # Heap entries at ``now`` all predate this batch (older eids than
            # anything in ``current``), and no *new* heap entry can land at
            # ``now`` while the batch runs — _schedule routes every same-time
            # schedule to a FIFO — so once the heap head moves past ``now``
            # phase 2 never has to peek at the heap again.
            while True:
                if urgent:
                    event = pop_urgent()
                elif queue and queue[0][0] == now:  # dgf: noqa[DGF004]: intentional exact identity — batch membership is "this entry's scheduled float is bit-for-bit the batch time"
                    event = heappop(queue)[3]
                else:
                    break
                callbacks = event.callbacks
                if callbacks is None or (
                        event._maybe_stale and event._when != now):  # dgf: noqa[DGF004]: intentional exact identity — same staleness contract as _skip_stale
                    continue
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not getattr(event, "defused", True):
                    # An un-waited-for failure: surface it instead of losing it.
                    raise event._value
            # Phase 2: drain the current-timestamp FIFO, which also absorbs
            # everything callbacks keep scheduling at ``now``; a callback may
            # still raise an interrupt, so the urgent lane stays first.
            while True:
                if urgent:
                    event = pop_urgent()
                elif current:
                    event = pop_current()
                else:
                    return True
                callbacks = event.callbacks
                if callbacks is None or (
                        event._maybe_stale and event._when != now):  # dgf: noqa[DGF004]: intentional exact identity — same staleness contract as _skip_stale
                    continue
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not getattr(event, "defused", True):
                    raise event._value
        finally:
            if san is not None:
                san.end_batch()

    @property
    def sanitizer(self):
        """Attached :class:`repro.analysis.sanitizer.ScheduleSanitizer`,
        or None (the default). Attach/detach through the sanitizer's own
        methods, between steps: they swap the urgent and current lanes
        for the sanitizer's recording deques and back."""
        return self._sanitizer

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none."""
        if self._urgent or self._current:
            return self._now
        self._skip_stale()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next timestamp's batch of live events.

        Since the batched rewrite this dispatches *every* event sharing
        the next timestamp (including ones its callbacks schedule at that
        same timestamp), not a single event: "one step" is one clock
        value. Raises :class:`SimStopped` when nothing live remains.
        """
        if not self._step_batch():
            raise SimStopped("no more events")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        When ``until`` is given, the clock is advanced exactly to it even if
        the queue drains earlier.
        """
        step = self._step_batch
        if until is not None:
            if until < self._now:
                raise SimError(f"until={until} is in the past (now={self._now})")
            while self.peek() <= until:
                step()
            self._now = float(until)
            return
        while step():
            pass

    def run_process(self, generator: Generator) -> Any:
        """Convenience: start ``generator`` as a process, run to completion,
        and return its result (raising if the process failed).

        If the event queue drains while the process is still alive, the
        process is deadlocked — suspended on an event nothing will ever
        trigger — and a :class:`SimError` naming the stuck generator is
        raised instead of an opaque "no more events".
        """
        proc = self.process(generator)
        step = self._step_batch
        while proc.is_alive:
            if not step():
                name = getattr(proc._generator, "__name__", None) or repr(proc)
                telemetry = self._telemetry
                if telemetry is not None:
                    # Duck-typed: the kernel imports no telemetry. An
                    # attached flight recorder auto-dumps its ring so the
                    # causal tail of the hang survives the raise.
                    recorder = getattr(telemetry, "recorder", None)
                    if recorder is not None:
                        recorder.on_deadlock(name, repr(proc._target))
                raise SimError(
                    f"simulation deadlocked: event queue drained at "
                    f"t={self._now} while process {name!r} (spawned at "
                    f"t={proc._spawned_at}) is still waiting on "
                    f"{proc._target!r}")
        if not proc._ok:
            # We are the waiter: mark the failure handled so the pending
            # completion event does not re-raise on a later step()/run().
            proc.defused = True
            raise proc._value
        return proc._value
