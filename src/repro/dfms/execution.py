"""Execution state of one submitted datagridflow.

A :class:`FlowExecution` is the DfMS server's record of one DGL request:
the flow definition, the live status tree (queryable at any granularity,
§3.1), the control switches (start / stop / pause / restart), the journal
of completed step instances (the unit of checkpoint/recovery), and the
message log.

The status tree reuses :class:`repro.dgl.model.FlowStatus` as a *mutable*
structure: one node per definition node, mirrored up front so a status
query can see PENDING children before they run. Loop flows report progress
through ``iterations`` rather than materializing per-iteration nodes.
Only the nodes' state, times and iterations change; the tree's shape does
not, so a step's node keeps the shared ``()`` for its children, as a
journal entry does for the effects of a step that assigned nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.errors import InvalidTransition
from repro.dgl.model import ExecutionState, Flow, FlowStatus, Step
from repro.sim.kernel import Environment, Event

__all__ = ["FlowExecution", "JournalEntry", "build_status_tree"]


def build_status_tree(node: Union[Flow, Step]) -> FlowStatus:
    """Mirror a flow definition as an all-PENDING status tree."""
    status = FlowStatus(name=node.name, state=ExecutionState.PENDING)
    if isinstance(node, Flow) and node.children:
        status.children = [build_status_tree(child) for child in node.children]
    return status


@dataclass
class JournalEntry:
    """One completed step instance, sufficient to skip it on replay."""

    instance_key: str
    effects: Tuple[Tuple[str, Any], ...] = ()
    finished_at: float = 0.0


class FlowExecution:
    """One request's execution: status, control, journal, messages."""

    def __init__(self, request_id: str, flow: Flow, user_name: str,
                 virtual_organization: str, env: Environment) -> None:
        self.request_id = request_id
        self.flow = flow
        self.user_name = user_name
        self.virtual_organization = virtual_organization
        self.env = env
        self.status = build_status_tree(flow)
        self.state = ExecutionState.PENDING
        self.error: Optional[str] = None
        #: The exception object behind a FAILED state (``error`` keeps the
        #: string for status documents). Recovery supervisors dispatch on
        #: its type — :class:`repro.errors.Retryable` or not — never on
        #: the message text.
        self.failure: Optional[BaseException] = None
        self.submitted_at = env.now
        self.finished_at: Optional[float] = None
        #: ``(time, message)`` pairs from ``dgl.log``: the shared ``()``
        #: until the first message, when :meth:`~repro.dfms.context.
        #: ExecutionContext.log` makes it a list.
        self.messages: Sequence[Tuple[float, str]] = ()
        #: instance_key -> JournalEntry for completed steps.
        self.journal: Dict[str, JournalEntry] = {}
        #: When True the engine skips steps found in the journal (recovery).
        self.replaying = False
        # Control switches, inspected by the engine at step boundaries.
        self._pause_requested = False
        self._cancel_requested = False
        self._resume_event: Optional[Event] = None
        #: The completion event; triggers when the execution reaches a
        #: terminal state (used by synchronous submits and by wait()).
        self.done: Event = env.event()

    # -- control ------------------------------------------------------------

    @property
    def pause_requested(self) -> bool:
        return self._pause_requested

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def pause(self) -> None:
        """Ask the engine to pause at the next step boundary."""
        if self.state.is_terminal:
            raise InvalidTransition(
                f"{self.request_id} is {self.state.value}; cannot pause")
        self._pause_requested = True

    def resume(self) -> None:
        """Resume a paused (or pause-requested) execution."""
        if self.state.is_terminal:
            raise InvalidTransition(
                f"{self.request_id} is {self.state.value}; cannot resume")
        if not self._pause_requested:
            raise InvalidTransition(f"{self.request_id} is not paused")
        self._pause_requested = False
        self._wake()

    def cancel(self) -> None:
        """Ask the engine to stop at the next step boundary."""
        if self.state.is_terminal:
            raise InvalidTransition(
                f"{self.request_id} is {self.state.value}; cannot cancel")
        self._cancel_requested = True
        self._wake()   # a paused execution must wake up to die

    def _wake(self) -> None:
        if self._resume_event is not None and not self._resume_event.triggered:
            self._resume_event.succeed()
        self._resume_event = None

    def wait_for_resume(self) -> Event:
        """Event the engine parks on while paused."""
        if self._resume_event is None or self._resume_event.triggered:
            self._resume_event = self.env.event()
        return self._resume_event

    # -- completion -----------------------------------------------------------

    def finish(self, state: ExecutionState, error: Optional[str] = None,
               failure: Optional[BaseException] = None) -> None:
        """Record the terminal state and trigger :attr:`done`."""
        self.state = state
        self.error = error
        self.failure = failure
        self.finished_at = self.env.now
        if not self.done.triggered:
            self.done.succeed(self)

    # -- journal -----------------------------------------------------------

    def record_step(self, instance_key: str,
                    effects: Sequence[Tuple[str, Any]]) -> None:
        """Journal a completed step instance (its effects as a tuple)."""
        self.journal[instance_key] = JournalEntry(
            instance_key=instance_key, effects=tuple(effects),
            finished_at=self.env.now)

    def journalled(self, instance_key: str) -> Optional[JournalEntry]:
        """The journal entry for ``instance_key`` if replay should skip it."""
        if not self.replaying:
            return None
        return self.journal.get(instance_key)

    def __repr__(self) -> str:
        return (f"<FlowExecution {self.request_id} {self.flow.name!r} "
                f"{self.state.value}>")
