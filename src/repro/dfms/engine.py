"""The recursive DGL flow interpreter.

Executes a :class:`~repro.dgl.model.Flow` over the simulation kernel:

* each Flow opens a variable scope and runs its children under its
  FlowLogic's control pattern (sequential, parallel, while, repeat,
  for-each over a datagrid query, switch-case);
* each Step expands its operation's ``${...}`` parameter templates against
  the scope chain and invokes the bound operation handler (timed handlers
  run as simulation processes);
* the reserved ``beforeEntry`` / ``afterExit`` rules run around flows and
  steps; the reserved ``onError`` rule gives steps fault handling
  (retry / ignore / abort — "fault handling information for the processes
  could also be provided in the execution logic", §2.3);
* the engine honours pause / resume / cancel at every step boundary and
  journals completed step instances so a checkpointed execution can be
  restarted without redoing work (§2.1: ILM processes "could be started,
  stopped and restarted at any time").

Observability: every progress notification is one row of the
environment's run journal for all enrolled row readers (provenance and
the telemetry session; see :mod:`repro.sim.journal`) and one
:class:`EngineEvent`, built only while a live listener such as an
:class:`~repro.dfms.monitoring.ExecutionMonitor` push-watcher is
subscribed. When a telemetry session is attached to the environment the
engine additionally opens execution → flow → step tracing spans,
propagating span context into the separate simulation processes it
spawns for parallel branches and timed operation handlers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from repro.errors import (
    DGLValidationError,
    ExecutionError,
    ExpressionError,
    ReproError,
)
from repro.dfms.context import ExecutionContext
from repro.dfms.execution import FlowExecution
from repro.dgl.expressions import (
    Scope,
    evaluate,
    evaluate_condition,
    render_template,
)
from repro.dgl.model import (
    AFTER_EXIT,
    BEFORE_ENTRY,
    ExecutionState,
    Flow,
    FlowStatus,
    ForEach,
    Operation,
    Parallel,
    Repeat,
    Sequential,
    Step,
    SwitchCase,
    UserDefinedRule,
    WhileLoop,
)
from repro.dgl.operations import OperationRegistry
from repro.grid.query import Query, parse_conditions
from repro.sim.journal import Journal
from repro.sim.kernel import Environment
from repro.sim.resources import Resource
from repro.telemetry.tracing import EXECUTION, FLOW, STEP

__all__ = ["EngineEvent", "FlowEngine", "FlowCancelled", "ON_ERROR"]

#: Reserved rule name for step fault handling.
ON_ERROR = "onError"

#: Safety bound on while/repeat loops, so a buggy DGL document cannot hang
#: the simulation. Generous relative to any workload in the experiments.
MAX_LOOP_ITERATIONS = 1_000_000

#: Flow nesting is interpreted with native recursion (a few Python frames
#: per level), so Python's recursion limit caps practical depth near 200.
#: Documents are validated against this before execution.
MAX_NESTING_DEPTH = 150


class FlowCancelled(ReproError):
    """Internal control-flow signal: the execution was cancelled."""


def _collected(branch) -> None:
    """Mark a parallel branch's failure handled: its parent re-raises it
    once every earlier branch has settled, so the kernel must not treat
    it as an un-waited failure in the meantime."""
    if not branch._ok:
        branch.defused = True


class EngineEvent(NamedTuple):
    """One engine progress event, built once and shared by every live
    listener (so ``detail`` is read-only to all of them)."""

    kind: str                 # step_started / step_completed / paused / ...
    request_id: str
    instance_key: str         # step/flow instance path ('' for the root)
    time: float
    detail: Dict[str, object]
    user: Optional[str]       # the submitting user's qualified name


class FlowEngine:
    """Interprets flows for a DfMS server."""

    def __init__(self, env: Environment, registry: OperationRegistry) -> None:
        self.env = env
        self.registry = registry
        #: Observers of engine progress; each is called as
        #: listener(event) with the one :class:`EngineEvent` per event,
        #: except the entries of row readers (see :meth:`enroll`).
        self.listeners: List[Callable[[EngineEvent], None]] = []
        #: The listed entries of enrolled row readers.
        self.readers: List[Callable] = []
        #: Where the rows go: the environment's journal, once a row
        #: reader enrolls.
        self.journal: Optional[Journal] = None

    # -- public entry -----------------------------------------------------

    def start(self, execution: FlowExecution, ctx: ExecutionContext):
        """Launch ``execution`` as a simulation process and return it."""
        return self.env.process(self._run_root(execution, ctx))

    # -- notifications ------------------------------------------------------

    def enroll(self, entry: Callable) -> Journal:
        """Enroll a row reader whose entry in :attr:`listeners` is
        ``entry`` (listed once), and return the journal its rows land in.

        An event is one row of :attr:`journal` for every enrolled reader
        together; their entries are not called, so a run with only row
        readers builds no :class:`EngineEvent`.
        """
        if entry not in self.readers:
            self.readers.append(entry)
        if entry not in self.listeners:
            self.listeners.append(entry)
        self.journal = self.env.journal
        return self.journal

    def _notify(self, kind: str, execution: FlowExecution, key: str,
                operation: Optional[str] = None,
                failure: Optional[Dict[str, str]] = None) -> None:
        """Announce one event of ``execution``'s node ``key``: a step's
        ``operation`` name, or a ``failure``'s error and error type.

        :attr:`listeners` are walked in order: the first row reader's
        entry appends the event's row, and each other listener gets the
        one :class:`EngineEvent`, built at the first of them.
        """
        listeners = self.listeners
        if listeners:
            readers = self.readers
            row = event = None
            for listener in listeners:
                if listener in readers:
                    if row is None:
                        now = self.env._now
                        row = self.journal.add(
                            kind, self, execution.request_id, key, now, now,
                            execution.user_name, operation, failure)
                    continue
                if event is None:
                    detail = (failure if failure is not None
                              else {} if operation is None
                              else {"operation": operation})
                    event = tuple.__new__(EngineEvent, (
                        kind, execution.request_id, key, self.env._now,
                        detail, execution.user_name))
                listener(event)

    # -- control gate --------------------------------------------------------

    def _gate(self, execution: FlowExecution):
        """Honour pause/cancel requests; runs at every step boundary."""
        if execution.cancel_requested:
            raise FlowCancelled(execution.request_id)
        while execution.pause_requested:
            if execution.state is not ExecutionState.PAUSED:
                execution.state = ExecutionState.PAUSED
                self._notify("paused", execution, "")
            yield execution.wait_for_resume()
            if execution.cancel_requested:
                raise FlowCancelled(execution.request_id)
        if execution.state is ExecutionState.PAUSED:
            execution.state = ExecutionState.RUNNING
            self._notify("resumed", execution, "")

    # -- root ------------------------------------------------------------------

    def _run_root(self, execution: FlowExecution, ctx: ExecutionContext):
        execution.state = ExecutionState.RUNNING
        self._notify("execution_started", execution, "")
        t = self.env.telemetry
        # Spans are parented explicitly: each _run_* level holds its own
        # span id in a local and passes it down as the children's parent
        # (Tracer.begin/finish — no context-stack bookkeeping).
        span = None if t is None else t.tracer.begin(
            EXECUTION, None, (execution.request_id, execution.flow.name))
        try:
            yield from self._run_flow(execution.flow, execution.status,
                                      ctx.scope, ctx, execution, "", span)
        except FlowCancelled:
            execution.finish(ExecutionState.CANCELLED)
            self._notify("execution_cancelled", execution, "")
        except Exception as exc:
            execution.finish(ExecutionState.FAILED, error=str(exc),
                             failure=exc)
            self._notify("execution_failed", execution, "", failure={
                "error": str(exc), "error_type": type(exc).__name__})
        else:
            execution.finish(ExecutionState.COMPLETED)
            self._notify("execution_completed", execution, "")
        if span is not None:
            t.tracer.finish(
                span, status="ok" if execution.state is
                ExecutionState.COMPLETED else execution.state.value)
        return execution

    # -- node exit ------------------------------------------------------------

    def _settle(self, kind, execution, key, status, t, span, exc=None,
                active=None, prev_tspan=None):
        """End a flow or step node (``kind``): completed, or cancelled or
        failed by ``exc``. Sets its terminal state and end time; a failure
        is recorded and notified while a step's span is still its
        process's span context. Then a step's ``active`` process gets
        ``prev_tspan`` back, and the span closes ``ok``, ``cancelled`` or
        ``error`` in ``t``, the telemetry session that opened it (the
        environment may hold another one by now)."""
        status.finished_at = self.env.now
        if exc is None:
            status.state, outcome = ExecutionState.COMPLETED, "ok"
        elif isinstance(exc, FlowCancelled):
            status.state, outcome = ExecutionState.CANCELLED, "cancelled"
        else:
            status.state, outcome = ExecutionState.FAILED, "error"
            status.error = str(exc)
            self._notify(f"{kind}_failed", execution, key, failure={
                "error": str(exc), "error_type": type(exc).__name__})
        if span is not None:
            if active is not None:
                active._tspan = prev_tspan
            t.tracer.finish(span, outcome)

    # -- flows ------------------------------------------------------------------

    def _run_flow(self, flow: Flow, status: FlowStatus, parent_scope: Scope,
                  ctx: ExecutionContext, execution: FlowExecution,
                  prefix: str, parent_span=None):
        yield from self._gate(execution)
        if status.started_at is None:
            status.started_at = self.env.now
        status.state = ExecutionState.RUNNING
        key = prefix or flow.name
        self._notify("flow_started", execution, key)
        t = self.env.telemetry
        span = None if t is None else t.tracer.begin(
            FLOW, parent_span, (key, execution.request_id))
        scope = Scope(parent=parent_scope)
        for variable in flow.variables:
            scope.declare(variable.name,
                          render_template(variable.value, parent_scope))
        try:
            yield from self._run_rule_if_defined(
                flow.logic.rule(BEFORE_ENTRY), scope, ctx, execution)
            yield from self._run_pattern(flow, status, scope, ctx,
                                         execution, prefix, span)
            yield from self._run_rule_if_defined(
                flow.logic.rule(AFTER_EXIT), scope, ctx, execution)
        except Exception as exc:
            self._settle("flow", execution, key, status, t, span, exc)
            raise
        self._settle("flow", execution, key, status, t, span)
        self._notify("flow_completed", execution, key)

    def _run_pattern(self, flow, status, scope, ctx, execution, prefix,
                     span):
        """Run ``flow``'s children under its control pattern."""
        pattern = flow.logic.pattern
        if isinstance(pattern, Parallel):
            yield from self._run_parallel(flow, status, scope, ctx,
                                          execution, prefix, pattern, span)
            return
        if isinstance(pattern, Sequential):
            children = zip(flow.children, status.children)
        elif isinstance(pattern, SwitchCase):
            value = evaluate_condition(pattern.expression, scope)
            child = flow.child(value) if isinstance(value, str) else None
            if child is None and pattern.default is not None:
                child = flow.child(pattern.default)
            # No matching case and no default: a no-op (documented).
            children = () if child is None else (
                (child, status.children[flow.children.index(child)]),)
        else:
            # A loop: every child in order once per pass, keyed base[i].
            variable, items = self._loop_items(scope, ctx, pattern)
            base = prefix or flow.name
            # forEach walks a list it already holds; a loop with no item
            # variable (while, repeat) is capped against runaway documents.
            capped = variable is None
            for index, item in enumerate(items):
                if capped and index >= MAX_LOOP_ITERATIONS:
                    raise ExecutionError(
                        f"flow {flow.name!r} exceeded {MAX_LOOP_ITERATIONS} "
                        "iterations; aborting (runaway loop?)")
                yield from self._gate(execution)
                if variable is not None:
                    scope.declare(variable, item)
                iter_prefix = f"{base}[{index}]"
                for child, child_status in zip(flow.children,
                                                status.children):
                    yield from self._run_child(child, child_status, scope,
                                               ctx, execution, iter_prefix,
                                               span)
                status.iterations = index + 1
            return
        for child, child_status in children:
            yield from self._run_child(child, child_status, scope, ctx,
                                       execution, prefix, span)

    @staticmethod
    def _loop_items(scope, ctx, pattern):
        """A loop flow's item variable and an iterable with one entry per
        pass: the forEach items, ``range(count)``, or the while condition
        re-tested before each pass. A None variable (while, repeat) is
        what puts the loop under the ``MAX_LOOP_ITERATIONS`` cap."""
        if isinstance(pattern, WhileLoop):
            return None, iter(lambda: bool(
                evaluate_condition(pattern.condition, scope)), False)
        if isinstance(pattern, Repeat):
            count = pattern.count
            if isinstance(count, str):
                count = int(render_template(count, scope)
                            if "${" in count else evaluate(count, scope))
            if count < 0:
                raise ExecutionError(f"repeat count is negative: {count}")
            return None, range(count)
        if isinstance(pattern, ForEach):
            if pattern.items is not None:
                items = evaluate(pattern.items, scope)
                if not isinstance(items, list):
                    raise ExecutionError(
                        f"forEach items expression must yield a list, "
                        f"got {type(items).__name__}")
            else:
                collection = render_template(pattern.collection, scope)
                conditions = parse_conditions(
                    render_template(pattern.query, scope)
                    if pattern.query else "")
                query = Query(collection=collection, conditions=conditions)
                items = ctx.dgms.query_paths(ctx.user, query)
            scope.declare(pattern.item_variable, None)
            return pattern.item_variable, items
        raise DGLValidationError(  # pragma: no cover - FlowLogic validates
            f"unknown control pattern {type(pattern).__name__}")

    def _run_child(self, child, child_status, scope, ctx, execution, prefix,
                   span=None):
        """The generator that runs ``child``, a flow or a step, under
        ``prefix``."""
        key = f"{prefix}/{child.name}" if prefix else child.name
        run = self._run_flow if isinstance(child, Flow) else self._run_step
        return run(child, child_status, scope, ctx, execution, key, span)

    def _run_parallel(self, flow, status, scope, ctx, execution, prefix,
                      pattern: Parallel, span=None):
        limiter: Optional[Resource] = None
        if pattern.max_concurrent:
            limiter = Resource(self.env, capacity=pattern.max_concurrent)

        def _bounded(child, child_status):
            if limiter is None:
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, prefix, span)
                return
            request = limiter.request()
            yield request
            try:
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, prefix, span)
            finally:
                limiter.release(request)

        # Branches run as separate kernel processes. The flow span
        # reaches their steps as the closed-over `span` argument; pin it
        # on the process too so any work that reads the active process's
        # span context (rules spawning, transfers) parents correctly.
        # The loop below collects every branch's outcome, so a branch
        # that fails before the parent waits on it is marked handled.
        def _branch(child, child_status):
            process = self.env.process(_bounded(child, child_status))
            process._tspan = span
            process.callbacks.append(_collected)
            return process

        processes = [_branch(child, child_status)
                     for child, child_status in
                     zip(flow.children, status.children)]
        # Wait for every branch to settle, then surface the first error —
        # failing fast would orphan still-running siblings.
        first_error: Optional[BaseException] = None
        for process in processes:
            try:
                yield process
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    # -- steps ------------------------------------------------------------------

    def _run_step(self, step: Step, status: FlowStatus, parent_scope: Scope,
                  ctx: ExecutionContext, execution: FlowExecution, key: str,
                  parent_span=None):
        yield from self._gate(execution)
        if status.started_at is None:
            status.started_at = self.env.now
        entry = execution.journalled(key)
        if entry is not None:
            # Recovery: this instance already completed before the restart.
            for name, value in entry.effects:
                parent_scope.assign(name, value)
            self._settle("step", execution, key, status, None, None)
            self._notify("step_replayed", execution, key)
            return
        status.state = ExecutionState.RUNNING
        self._notify("step_started", execution, key,
                     operation=step.operation.name)
        t = self.env.telemetry
        if t is None:
            span = active = prev_tspan = None
        else:
            began = self.env._now
            span = t.tracer.begin(
                STEP, parent_span,
                (key, step.operation.name, execution.request_id))
            # Make the step span this process's span context for the
            # step's duration, so synchronous transfers and spawned
            # handler processes (_invoke) parent under it.
            active = self.env._active_process
            prev_tspan = active._tspan
            active._tspan = span
        scope = Scope(parent=parent_scope)
        for variable in step.variables:
            scope.declare(variable.name,
                          render_template(variable.value, parent_scope))
        step_ctx = ctx.for_step(scope, step.requirements)
        try:
            yield from self._run_rule_if_defined(
                step.rule(BEFORE_ENTRY), scope, step_ctx, execution)
            result = yield from self._run_operation_with_fault_handling(
                step, scope, step_ctx, execution)
            if step.operation.assign_to is not None:
                parent_scope.assign(step.operation.assign_to, result)
                step_ctx.effects.append((step.operation.assign_to, result))
            yield from self._run_rule_if_defined(
                step.rule(AFTER_EXIT), scope, step_ctx, execution)
        except Exception as exc:
            self._settle("step", execution, key, status, t, span, exc,
                         active, prev_tspan)
            raise
        self._settle("step", execution, key, status, t, span,
                     active=active, prev_tspan=prev_tspan)
        if span is not None:
            # This run of the step, timed as its span: a looped or
            # restarted node's status keeps its first start. Raw column
            # appends; buckets fold at export (see Histogram).
            now = self.env._now
            add_time, add_value = t.dfms_step_duration.appends
            add_time(now)
            add_value(now - began)
        execution.record_step(key, step_ctx.effects)
        self._notify("step_completed", execution, key,
                     operation=step.operation.name)

    def _run_operation_with_fault_handling(self, step, scope, step_ctx,
                                           execution):
        attempts = 0
        while True:
            try:
                result = yield from self._invoke(step.operation, scope,
                                                 step_ctx)
                return result
            except FlowCancelled:
                raise
            except Exception as exc:
                decision = self._fault_decision(step, scope, exc)
                if decision is None:
                    raise
                action, params = decision
                if action == "retry":
                    attempts += 1
                    t = self.env.telemetry
                    if t is not None:
                        t.dfms_step_retries.inc()
                    max_attempts = int(params.get("max", 3))
                    if attempts > max_attempts:
                        raise ExecutionError(
                            f"step {step.name!r} failed after "
                            f"{attempts} attempts: {exc}") from exc
                    delay = float(params.get("delay", 0.0))
                    if delay > 0:
                        yield self.env.timeout(delay)
                    continue
                if action == "ignore":
                    return None
                raise   # "abort" or a notification action that ran already

    def _fault_decision(self, step, scope, exc):
        """Consult the step's onError rule. Returns (kind, params) or None.

        The rule's condition is evaluated with ``error`` bound to the
        failure message; the chosen action's operation decides the outcome:
        ``dgl.retry`` / ``dgl.ignore`` / ``dgl.abort``. Any other operation
        is treated as abort (the step still fails after it is noted).
        """
        rule = step.rule(ON_ERROR)
        if rule is None:
            return None
        error_scope = Scope(parent=scope)
        error_scope.declare("error", str(exc))
        try:
            value = evaluate_condition(rule.condition, error_scope)
        except ExpressionError:
            return None
        action = rule.action_for(value)
        if action is None:
            return None
        operation = action.operation
        if operation.name == "dgl.retry":
            return "retry", operation.parameters
        if operation.name == "dgl.ignore":
            return "ignore", operation.parameters
        return "abort", operation.parameters

    # -- rules -------------------------------------------------------------------

    def _run_rule_if_defined(self, rule: Optional[UserDefinedRule],
                             scope: Scope, ctx: ExecutionContext,
                             execution: FlowExecution):
        if rule is None:
            return
        action = rule.action_for(evaluate_condition(rule.condition, scope))
        if action is None:
            return
        yield from self._invoke(action.operation, scope, ctx)

    # -- operations -----------------------------------------------------------------

    def _invoke(self, operation: Operation, scope: Scope,
                ctx: ExecutionContext):
        handler = self.registry.get(operation.name)
        params = {name: render_template(value, scope)
                  for name, value in operation.parameters.items()}
        result = handler(ctx, params)
        if OperationRegistry.is_timed(result):
            process = self.env.process(result)
            t = self.env.telemetry
            if t is not None:
                # Timed handlers run as separate kernel processes; hand
                # them the invoking process's span context (the step's
                # span) so transfers they start parent under it.
                process._tspan = self.env._active_process._tspan
            result = yield process
        return result
