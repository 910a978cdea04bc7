"""Programmatic monitoring of running datagridflows.

§2.1's requirement list includes a "programmatic API to query and monitor
any step in the datagrid ILM process". Status queries (pull) exist on the
server; this module adds the push half: an :class:`ExecutionMonitor`
subscribes to the engine's event stream and fans events out to filtered
watchers — by request, by step path, by event kind — plus simulation
events that trigger when a given task reaches a given state (so flows can
be coordinated from other processes).

The monitor is a subscriber on ``FlowEngine.listeners`` — the same event
bus the telemetry layer (:mod:`repro.telemetry`) attaches to — so
push-watchers, metrics, spans, and the structured event log all observe
one emission path. Watchers receive the engine's own
:class:`~repro.dfms.engine.EngineEvent`, unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.dgl.model import ExecutionState
from repro.dfms.engine import EngineEvent
from repro.dfms.server import DfMSServer
from repro.sim.kernel import Event

__all__ = ["EngineEvent", "ExecutionMonitor"]


class ExecutionMonitor:
    """Filtered push notifications over one server's engine events."""

    def __init__(self, server: DfMSServer) -> None:
        self.server = server
        self.events_seen = 0
        self._watchers: List[Tuple[dict, Callable[[EngineEvent], None]]] = []
        self._waits: List[Tuple[dict, Event]] = []
        server.engine.listeners.append(self._on_engine_event)

    # -- subscription -----------------------------------------------------

    def watch(self, callback: Callable[[EngineEvent], None],
              request_id: Optional[str] = None,
              kind: Optional[str] = None,
              key_prefix: Optional[str] = None) -> Callable[[], None]:
        """Register a watcher; returns an unsubscribe function.

        Every filter is optional and conjunctive: ``request_id`` pins one
        execution, ``kind`` one event kind (e.g. ``step_completed``),
        ``key_prefix`` a task subtree (e.g. ``stage-2/``).
        """
        filters = {"request_id": request_id, "kind": kind,
                   "key_prefix": key_prefix}
        entry = (filters, callback)
        self._watchers.append(entry)

        def _unsubscribe() -> None:
            try:
                self._watchers.remove(entry)
            except ValueError:
                pass

        return _unsubscribe

    #: Target states :meth:`wait_for` can watch, mapped to the engine
    #: event-kind suffix that announces them.
    WAITABLE_STATES = {
        ExecutionState.COMPLETED: "completed",
        ExecutionState.FAILED: "failed",
        ExecutionState.RUNNING: "started",
        ExecutionState.CANCELLED: "cancelled",
    }

    def wait_for(self, request_id: str, key: str = "",
                 state: ExecutionState = ExecutionState.COMPLETED) -> Event:
        """Simulation event triggering when task ``key`` reaches ``state``.

        Triggers immediately if the task is already there. Yields the
        matching :class:`EngineEvent` (or a synthetic one when already
        satisfied). Only states the engine announces are watchable
        (:attr:`WAITABLE_STATES`); asking for any other state — PENDING,
        PAUSED — raises :class:`ValueError` rather than registering a
        wait that could never trigger.
        """
        kind = self.WAITABLE_STATES.get(state)
        if kind is None:
            # getattr, not state.value: a caller passing a plain string
            # (or anything else) deserves the same clear error naming
            # exactly what they asked for, not an AttributeError.
            offending = getattr(state, "value", state)
            raise ValueError(
                f"cannot wait for state {offending!r}; watchable states "
                f"are {sorted(s.value for s in self.WAITABLE_STATES)}")
        event = self.server.env.event()
        execution = self.server.execution(request_id)
        status = execution.status.find(key)
        if status is not None and status.state is state:
            event.succeed(EngineEvent(
                "already", request_id, key, self.server.env.now, {},
                execution.user_name))
            return event
        self._waits.append(({"request_id": request_id, "key": key,
                             "suffix": kind}, event))
        return event

    # -- delivery ------------------------------------------------------------

    @staticmethod
    def _matches(filters: dict, event: EngineEvent) -> bool:
        if (filters["request_id"] is not None
                and event.request_id != filters["request_id"]):
            return False
        if filters["kind"] is not None and event.kind != filters["kind"]:
            return False
        if (filters["key_prefix"] is not None
                and not event.instance_key.startswith(filters["key_prefix"])):
            return False
        return True

    #: Lifecycle transitions mirrored into the structured event log as
    #: ``monitor.transition`` records, so causal traces cover what the
    #: monitor's watchers saw even when nothing subscribed.
    LIFECYCLE_KINDS = frozenset({
        "execution_started", "execution_completed", "execution_failed",
        "execution_cancelled", "paused", "resumed"})

    def _on_engine_event(self, event: EngineEvent) -> None:
        self.events_seen += 1
        kind, request_id, instance_key = event[:3]
        telemetry = self.server.env.telemetry
        if telemetry is not None and kind in self.LIFECYCLE_KINDS:
            telemetry.log.emit("monitor.transition", state=kind,
                               request_id=request_id, key=instance_key)
        for filters, callback in list(self._watchers):
            if self._matches(filters, event):
                callback(event)
        # Loop instances carry iteration suffixes ("loop[2]/work"); a wait
        # on the *definition* path matches any instance of it.
        stripped = _strip_iterations(instance_key)
        for entry in list(self._waits):
            filters, sim_event = entry
            if request_id != filters["request_id"]:
                continue
            if filters["suffix"] is None or not kind.endswith(
                    filters["suffix"]):
                # Execution-level waits match execution_* events on key ''.
                continue
            if stripped != filters["key"] and instance_key != filters["key"]:
                continue
            self._waits.remove(entry)
            if not sim_event.triggered:
                sim_event.succeed(event)
                if telemetry is not None:
                    telemetry.log.emit(
                        "monitor.wait_satisfied", state=kind,
                        request_id=request_id, key=instance_key)


def _strip_iterations(key: str) -> str:
    """Remove ``[i]`` iteration suffixes from an instance key."""
    out = []
    depth = 0
    for char in key:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif depth == 0:
            out.append(char)
    return "".join(out)
