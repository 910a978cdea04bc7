"""The DfMS server (the paper's SRB Matrix server).

"The DfMS server can service DGL requests both synchronously and
asynchronously. DfMS server manages state information about all the tasks,
which can be queried at any time. The DfMS server works on top of the
datagrid server (DGMS)" (§3.2).

Protocol (Appendix A):

* :meth:`submit` — handle one :class:`~repro.dgl.model.DataGridRequest`.
  A flow request starts executing and is answered immediately with a
  :class:`~repro.dgl.model.RequestAcknowledgement` carrying the unique
  request identifier (the asynchronous path). A status-query request is
  answered immediately with a detached snapshot of the status tree at
  the requested path and depth — only the requested granularity is
  copied, so status-heavy traffic never pays for the full tree. Invalid
  documents are answered with ``valid=False`` rather than an exception —
  the response's validity field exists for exactly this.
* :meth:`submit_sync` — the synchronous path: a generator that completes
  only when the flow does, returning the full status response.
* :meth:`pause` / :meth:`resume` / :meth:`cancel` — the §2.1 control
  surface for long-run processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import DfMSError, UnknownRequestError
from repro.dfms.bindings import bind_default_operations
from repro.dfms.compute import ComputeResource
from repro.dfms.context import ExecutionContext
from repro.dfms.engine import MAX_NESTING_DEPTH, FlowEngine
from repro.dfms.execution import FlowExecution
from repro.dfms.idl import InfrastructureDescription
from repro.dfms.scheduler.cost import CostModel
from repro.dfms.scheduler.placer import Placer
from repro.dfms.virtualdata import VirtualDataCatalog
from repro.dgl.expressions import Scope
from repro.dgl.model import (
    DataGridRequest,
    DataGridResponse,
    ExecutionState,
    FlowStatus,
    FlowStatusQuery,
    RequestAcknowledgement,
)
from repro.dgl.operations import OperationRegistry
from repro.dgl.schema import validate_request
from repro.errors import DGLValidationError
from repro.grid.dgms import DataGridManagementSystem
from repro.ids import IdFactory
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams

__all__ = ["DfMSServer"]


class DfMSServer:
    """One datagridflow management server on top of one DGMS."""

    def __init__(self, env: Environment, dgms: DataGridManagementSystem,
                 name: str = "matrix-1",
                 registry: Optional[OperationRegistry] = None,
                 infrastructure: Optional[InfrastructureDescription] = None,
                 placement_policy: str = "greedy",
                 streams: Optional[RandomStreams] = None) -> None:
        self.env = env
        self.dgms = dgms
        self.name = name
        self.registry = registry or bind_default_operations()
        self.engine = FlowEngine(env, self.registry)
        self.ids = IdFactory()
        self.virtual_data = VirtualDataCatalog(dgms)
        self.cost_model = CostModel(dgms)
        self.placer: Optional[Placer] = None
        self._placement_policy = placement_policy
        # Randomized placement draws from a named substream of the
        # run's seeded RandomStreams (the repo-wide DGF002 convention),
        # keyed by server name so co-hosted servers stay decorrelated.
        self._rng = (streams.stream(f"{name}.placer")
                     if streams is not None else None)
        self._compute: Dict[str, ComputeResource] = {}
        self.infrastructure: Optional[InfrastructureDescription] = None
        if infrastructure is not None:
            self.set_infrastructure(infrastructure)
        self._executions: Dict[str, FlowExecution] = {}
        self._requests: Dict[str, DataGridRequest] = {}
        # Launched executions whose done event has not fired (see
        # running_count).
        self._running = 0
        #: Advertised liveness; the P2P lookup service skips offline peers.
        self.online = True
        #: Optional zone federation this server participates in; enables
        #: the ``fed.copy`` operation for cross-grid flows (§2.1 BBSRC).
        self.federation = None
        # Stored procedures (§2.2); local import avoids a module cycle.
        from repro.dfms.procedures import ProcedureRegistry
        self.procedures = ProcedureRegistry(self)

    # ------------------------------------------------------------------
    # Infrastructure
    # ------------------------------------------------------------------

    def set_infrastructure(self,
                           infrastructure: InfrastructureDescription) -> None:
        """Adopt an infrastructure description (attaching its compute)."""
        self.infrastructure = infrastructure
        self._compute = {}
        for compute in infrastructure.all_compute():
            if compute._slots is None:
                compute.attach(self.env)
            self._compute[compute.name] = compute
        self.placer = Placer(infrastructure, self.cost_model,
                             policy=self._placement_policy, rng=self._rng)

    def compute_resource(self, name: str) -> Optional[ComputeResource]:
        """The registered compute resource called ``name``, if any."""
        return self._compute.get(name)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def _reject(self, request_id: str, message: str) -> DataGridResponse:
        return DataGridResponse(
            request_id=request_id,
            body=RequestAcknowledgement(
                request_id=request_id, state=ExecutionState.FAILED,
                valid=False, message=message))

    def admission_error(self, request: DataGridRequest) -> Optional[str]:
        """Why the flow ``request`` carries may not run here, or None.

        The one admission check, run on every path that starts an
        execution (submit, the gateway's :meth:`start_flow`, one-way
        submit and checkpoint restore), so operation handlers may rely
        on it. Checks run in order — structure, unknown operations,
        required parameters, nesting depth, grid user — and the first
        failure is the answer. A tree ``validate_flow`` already passed
        is not walked for structure again, and the next three checks
        share one walk (:meth:`OperationRegistry.check`). None of them
        recurses, so a document of any depth gets an answer.
        """
        try:
            validate_request(request)
        except DGLValidationError as exc:
            return f"invalid DGL document: {exc}"
        missing, problems, depth = self.registry.check(request.body)
        if missing:
            return f"unknown operations: {', '.join(missing)}"
        if problems:
            return "; ".join(problems)
        if depth > MAX_NESTING_DEPTH:
            return (f"flow nests {depth} levels deep; "
                    f"the engine supports at most {MAX_NESTING_DEPTH}")
        if request.user not in self.dgms.users:
            return f"unknown grid user {request.user!r}"
        return None

    def launch(self, execution: FlowExecution, request: DataGridRequest,
               replace: bool = False) -> FlowExecution:
        """Register and start an execution :meth:`admission_error` passed.

        ``replace=True`` lets a recovery supervisor restart a *terminal*
        (typically FAILED) execution in place: the identifier keeps
        resolving, now to the restarted attempt. Replacing a live
        execution is refused — two engines would race on one request id.
        """
        request_id = execution.request_id
        existing = self._executions.get(request_id)
        if existing is not None and not (replace
                                         and existing.state.is_terminal):
            raise DfMSError(f"request {request_id!r} already registered")
        self._executions[request_id] = execution
        self._requests[request_id] = request
        self._running += 1
        execution.done.callbacks.append(self._execution_done)
        ctx = ExecutionContext(env=self.env, dgms=self.dgms,
                               user=self.dgms.users.get(request.user),
                               scope=Scope(), execution=execution,
                               server=self)
        self.engine.start(execution, ctx)
        return execution

    def allocate_request_id(self) -> str:
        """Allocate the next request identifier without admitting anything.

        The gateway pre-allocates identifiers for queued requests so the
        queued acknowledgement already carries the id the flow will run
        under; pair with :meth:`start_flow`.
        """
        return self.ids.next(f"{self.name}.dgr")

    def start_flow(self, request: DataGridRequest,
                   request_id: str) -> DataGridResponse:
        """Admit and start a flow request under a pre-allocated id.

        The dequeue half of the gateway protocol: validation failures
        come back as ``valid=False`` responses exactly like
        :meth:`submit`.
        """
        error = self.admission_error(request)
        if error is not None:
            return self._reject(request_id, error)
        execution = self.launch(FlowExecution(
            request_id=request_id, flow=request.body,
            user_name=request.user,
            virtual_organization=request.virtual_organization,
            env=self.env), request)
        return DataGridResponse(
            request_id=request_id,
            body=RequestAcknowledgement(
                request_id=request_id, state=execution.state, valid=True,
                message=f"accepted by {self.name}"))

    def submit(self, request: DataGridRequest) -> DataGridResponse:
        """Handle a request; always returns immediately.

        Flow requests are acknowledged and run in the background; status
        queries are answered in place.
        """
        if isinstance(request.body, FlowStatusQuery):
            return self._answer_status_query(request.body)
        return self.start_flow(request, self.allocate_request_id())

    def submit_oneway(self, request: DataGridRequest) -> None:
        """Fire-and-forget submission (Appendix A's one-way messages).

        No response document is produced — not even an acknowledgement.
        Invalid documents are dropped silently, exactly the trade-off
        one-way messaging makes; callers who need delivery confirmation
        use :meth:`submit`.
        """
        if isinstance(request.body, FlowStatusQuery):
            return   # a status query with nowhere to send the answer
        self.start_flow(request, self.allocate_request_id())

    def submit_sync(self, request: DataGridRequest):
        """Generator (sim process body): submit and wait for completion.

        Returns the final :class:`DataGridResponse` carrying the full
        status tree. Status queries and invalid documents return
        immediately, exactly like :meth:`submit`.
        """
        response = self.submit(request)
        if (isinstance(request.body, FlowStatusQuery)
                or not response.body.valid):
            return response
            yield   # pragma: no cover - makes this function a generator
        execution = self._executions[response.request_id]
        if not execution.state.is_terminal:
            yield execution.done
        return DataGridResponse(request_id=response.request_id,
                                body=execution.status.snapshot())

    def _answer_status_query(self, query: FlowStatusQuery) -> DataGridResponse:
        execution = self._executions.get(query.request_id)
        if execution is None:
            return self._reject(
                query.request_id,
                f"unknown request {query.request_id!r}")
        status = execution.status.find(query.path or "")
        if status is None:
            return self._reject(
                query.request_id,
                f"no task at path {query.path!r} in {query.request_id}")
        return DataGridResponse(request_id=query.request_id,
                                body=status.snapshot(query.max_depth))

    # ------------------------------------------------------------------
    # Programmatic control and inspection
    # ------------------------------------------------------------------

    def execution(self, request_id: str) -> FlowExecution:
        """The execution for ``request_id`` (raises if unknown)."""
        try:
            return self._executions[request_id]
        except KeyError:
            raise UnknownRequestError(
                f"{self.name} knows no request {request_id!r}") from None

    def request_document(self, request_id: str) -> DataGridRequest:
        """The original request document (used by checkpointing)."""
        try:
            return self._requests[request_id]
        except KeyError:
            raise UnknownRequestError(
                f"{self.name} knows no request {request_id!r}") from None

    def status(self, request_id: str, path: Optional[str] = None,
               max_depth: Optional[int] = None) -> FlowStatus:
        """A detached status snapshot of one request, optionally narrowed
        to a subtree (``path``) and truncated to ``max_depth`` levels."""
        execution = self.execution(request_id)
        status = execution.status.find(path or "")
        if status is None:
            raise UnknownRequestError(
                f"no task at path {path!r} in {request_id}")
        return status.snapshot(max_depth)

    def pause(self, request_id: str) -> None:
        """Pause ``request_id`` at its next step boundary."""
        self.execution(request_id).pause()

    def resume(self, request_id: str) -> None:
        """Resume a paused ``request_id``."""
        self.execution(request_id).resume()

    def cancel(self, request_id: str) -> None:
        """Stop ``request_id`` at its next step boundary."""
        self.execution(request_id).cancel()

    def wait(self, request_id: str):
        """Event that triggers when the request reaches a terminal state."""
        execution = self.execution(request_id)
        if execution.state.is_terminal:
            event = self.env.event()
            event.succeed(execution)
            return event
        return execution.done

    # -- load, for the P2P network ------------------------------------------

    @property
    def running_count(self) -> int:
        """Executions not yet in a terminal state.

        A live count: :meth:`launch` adds one and each execution's
        ``done`` event takes it away when the kernel processes it, at
        the sim instant the execution finished, so P2P routing can read
        every peer's load on every referral.
        """
        return self._running

    def _execution_done(self, _event) -> None:
        self._running -= 1

    def executions(self) -> List[FlowExecution]:
        """All executions this server has accepted."""
        return list(self._executions.values())
