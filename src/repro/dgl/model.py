"""The DGL document object model.

Mirrors Appendix A of the paper:

* a :class:`DataGridRequest` carries document metadata, the grid user and
  virtual organization, and either a :class:`Flow` or a
  :class:`FlowStatusQuery` (paper Fig. 2);
* a :class:`Flow` is a recursive control structure with three sections —
  Variables, FlowLogic, and Children (sub-flows *or* steps, never both)
  (paper Fig. 1);
* :class:`FlowLogic` is a choice of control pattern plus user-defined
  ECA rules, including the reserved ``beforeEntry`` / ``afterExit`` hooks
  (paper Fig. 3);
* a :class:`Step` is a concrete action: variables + rules + exactly one
  :class:`Operation`;
* a :class:`DataGridResponse` carries either a full :class:`FlowStatus`
  (synchronous requests), a :class:`RequestAcknowledgement`
  (asynchronous requests) (paper Fig. 4), or — from a load-managed
  front end — a :class:`RequestRejection` shedding the request outright.

Definition trees are values. Every sequence in one (a flow's variables
and children, a logic's rules, a step's variables and rules, a rule's
actions) is a tuple, converted once when the node is built, so the
builder, the XML and MoML readers and every other producer yield equal
trees. An empty sequence is the shared ``()``: a node keeps no container
of its own for what it does not have, and leaves nothing for the cyclic
collector to scan.

Definition nodes are frozen, slotted values, so a producer may share one
subtree among many trees and executions, and a check may be remembered
on the node it was made on. An operation's ``parameters`` and a step's
``requirements`` read as a read-only view of a private dict. Flows with
no pattern and no rules share :data:`DEFAULT_LOGIC`, and nodes with no
parameters or requirements share one empty dict. Derive a changed tree
with :func:`dataclasses.replace`: the nodes it replaces are new and
unchecked, and every other subtree is shared. The memo fields, ``_valid``
on flows and steps (see :func:`~repro.dgl.schema.validate_flow`) and
``_admitted`` on steps (see :meth:`~repro.dgl.operations.
OperationRegistry.check`), take no part in ``==`` or ``repr``, and no
document form writes them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union)

from repro.errors import DGLValidationError

__all__ = [
    "Variable", "Operation", "Action", "UserDefinedRule",
    "ControlPattern", "Sequential", "Parallel", "WhileLoop", "Repeat",
    "ForEach", "SwitchCase", "FlowLogic", "Step", "Flow",
    "DocumentMetadata", "DataGridRequest", "FlowStatusQuery",
    "ExecutionState", "FlowStatus", "RequestAcknowledgement",
    "RequestRejection", "DataGridResponse", "BEFORE_ENTRY", "AFTER_EXIT",
    "SEQUENTIAL", "DEFAULT_LOGIC",
]

#: Reserved user-defined-rule names (Appendix A).
BEFORE_ENTRY = "beforeEntry"
AFTER_EXIT = "afterExit"

#: The one dict every node without parameters or requirements holds.
_NO_ENTRIES: Dict[str, Union[str, int, float, None]] = {}


def _read_only(name: str):
    """Class decorator: serve the slotted mapping field ``name``
    read-only.

    The slot keeps an exact dict copied from what the node was built
    with, or the shared empty one. The collector does not track a dict
    of strings and numbers, so the node keeps no tracked object for it.
    Each read wraps the dict in a fresh :class:`~types.MappingProxyType`
    that lives only as long as its reader holds it. Only construction
    writes the field, through ``object.__setattr__``: a frozen node
    refuses plain assignment first.
    """

    def _install(cls):
        slot = cls.__dict__[name]

        def read(node, _get=slot.__get__, _view=MappingProxyType):
            return _view(_get(node))

        def write(node, value, _set=slot.__set__):
            _set(node, dict(value) if value else _NO_ENTRIES)

        setattr(cls, name, property(read, write))
        return cls

    return _install


def _memo(default=None):
    """A memo field: set after construction, outside ``==`` and
    ``repr``, and reset by :func:`dataclasses.replace`."""
    return field(default=default, init=False, repr=False, compare=False)


# --------------------------------------------------------------------------
# Building blocks
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Variable:
    """A variable declaration in a Flow's or Step's scope."""

    name: str
    value: Union[str, int, float, None] = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise DGLValidationError(
                f"variable name must be an identifier, got {self.name!r}")


@_read_only("parameters")
@dataclass(frozen=True, slots=True)
class Operation:
    """The atomic action a Step performs.

    ``name`` selects a handler from the operation registry (datagrid
    operations like ``srb.put``, or ``exec`` for business logic). String
    parameter values may contain ``${...}`` templates expanded against the
    step's scope at execution time. ``assign_to`` optionally names a DGL
    variable that receives the operation's result.
    """

    name: str
    parameters: Dict[str, Union[str, int, float, None]] = field(default_factory=dict)
    assign_to: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DGLValidationError("operation name cannot be empty")
        if self.assign_to is not None and not self.assign_to.isidentifier():
            raise DGLValidationError(
                f"assign_to must be an identifier, got {self.assign_to!r}")


@dataclass(frozen=True, slots=True)
class Action:
    """One named action inside a user-defined rule."""

    name: str
    operation: Operation


@dataclass(frozen=True, slots=True)
class UserDefinedRule:
    """An ECA rule: evaluate ``condition``; run the action it names.

    "Each UserDefinedRule has one condition and can have one or more
    Actions. … The Actions are executed if the condition statement
    evaluates to the name of the action." (Appendix A). A condition that
    evaluates to boolean ``True`` is treated as naming the first action,
    so simple guard-style rules stay terse.
    """

    name: str
    condition: str
    actions: Tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise DGLValidationError(f"rule {self.name!r} needs at least one action")
        names = [action.name for action in self.actions]
        if len(names) != len(set(names)):
            raise DGLValidationError(
                f"rule {self.name!r} has duplicate action names")

    def action_for(self, value) -> Optional[Action]:
        """The action the condition's ``value`` names, if any: a string
        names the action so called, and ``True`` the first one."""
        if value is True:
            return self.actions[0]
        if isinstance(value, str):
            for action in self.actions:
                if action.name == value:
                    return action
        return None


# --------------------------------------------------------------------------
# Control patterns
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Sequential:
    """Children execute one after another."""


@dataclass(frozen=True, slots=True)
class Parallel:
    """Children execute concurrently; the flow completes when all do.

    ``max_concurrent`` optionally bounds the fan-out (0 = unbounded).
    """

    max_concurrent: int = 0

    def __post_init__(self) -> None:
        if self.max_concurrent < 0:
            raise DGLValidationError("max_concurrent cannot be negative")


@dataclass(frozen=True, slots=True)
class WhileLoop:
    """Children execute (in order) repeatedly while ``condition`` holds."""

    condition: str

    def __post_init__(self) -> None:
        if not self.condition.strip():
            raise DGLValidationError("while loop needs a condition")


@dataclass(frozen=True, slots=True)
class Repeat:
    """Children execute ``count`` times (count may be an expression)."""

    count: Union[int, str]


@dataclass(frozen=True, slots=True)
class ForEach:
    """Children execute once per item.

    ``item_variable`` is bound to each item in turn. Items come from either
    ``query`` (a datagrid query in the text form of
    :func:`repro.grid.query.parse_conditions`, run against a collection) or
    ``items`` (an expression evaluating to a list). Exactly one must be set.
    This is the paper's "iterating some set of tasks over collections of
    files … processed according to a datagrid query" (§2.3).
    """

    item_variable: str
    collection: Optional[str] = None
    query: Optional[str] = None
    items: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.item_variable.isidentifier():
            raise DGLValidationError(
                f"item variable must be an identifier, got {self.item_variable!r}")
        has_query = self.collection is not None
        has_items = self.items is not None
        if has_query == has_items:
            raise DGLValidationError(
                "forEach needs exactly one of (collection [+ query]) or items")
        if self.query is not None and self.collection is None:
            raise DGLValidationError("forEach query requires a collection")


@dataclass(frozen=True, slots=True)
class SwitchCase:
    """Evaluate ``expression``; execute the child whose name matches.

    ``default`` optionally names the child to run when no case matches;
    with no match and no default, the flow is a no-op.
    """

    expression: str
    default: Optional[str] = None


#: The closed set of control patterns a FlowLogic may choose from.
ControlPattern = Union[Sequential, Parallel, WhileLoop, Repeat, ForEach, SwitchCase]

_PATTERN_TYPES = (Sequential, Parallel, WhileLoop, Repeat, ForEach, SwitchCase)

#: The default pattern, shared by every flow that does not choose one.
SEQUENTIAL = Sequential()


@dataclass(frozen=True, slots=True)
class FlowLogic:
    """Control-structure choice + the rules that wrap execution (Fig. 3)."""

    pattern: ControlPattern = SEQUENTIAL
    rules: Tuple[UserDefinedRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if not isinstance(self.pattern, _PATTERN_TYPES):
            raise DGLValidationError(
                f"unknown control pattern {type(self.pattern).__name__}")
        names = [rule.name for rule in self.rules]
        if len(names) != len(set(names)):
            raise DGLValidationError("duplicate rule names in flowLogic")

    def rule(self, name: str) -> Optional[UserDefinedRule]:
        """The rule called ``name``, if defined."""
        for rule in self.rules:
            if rule.name == name:
                return rule
        return None


#: The default logic (sequential, no rules), shared like :data:`SEQUENTIAL`.
DEFAULT_LOGIC = FlowLogic()


# --------------------------------------------------------------------------
# Steps and Flows
# --------------------------------------------------------------------------


@_read_only("requirements")
@dataclass(frozen=True, slots=True)
class Step:
    """A concrete action: one operation, with its own scope and rules."""

    name: str
    operation: Operation
    variables: Tuple[Variable, ...] = ()
    rules: Tuple[UserDefinedRule, ...] = ()
    #: Abstract resource requirements for the scheduler (§2.3: "describe the
    #: requirements in terms of resource types and the service levels").
    requirements: Dict[str, Union[str, int, float]] = field(default_factory=dict)
    _valid: bool = _memo(False)
    _admitted: object = _memo()

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.name:
            raise DGLValidationError("step name cannot be empty")

    def rule(self, name: str) -> Optional[UserDefinedRule]:
        """The step's rule called ``name``, if defined."""
        for rule in self.rules:
            if rule.name == name:
                return rule
        return None


@dataclass(frozen=True, slots=True)
class Flow:
    """The recursive control structure of Fig. 1."""

    name: str
    logic: FlowLogic = DEFAULT_LOGIC
    variables: Tuple[Variable, ...] = ()
    children: Tuple[Union["Flow", Step], ...] = ()
    _valid: bool = _memo(False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "children", tuple(self.children))
        if not self.name:
            raise DGLValidationError("flow name cannot be empty")
        kinds = {type(child) for child in self.children}
        if Flow in kinds and Step in kinds:
            raise DGLValidationError(
                f"flow {self.name!r} mixes sub-flows and steps; "
                "children must be one kind (Appendix A)")
        names = [child.name for child in self.children]
        if len(names) != len(set(names)):
            raise DGLValidationError(
                f"flow {self.name!r} has children with duplicate names")

    def child(self, name: str) -> Union["Flow", Step, None]:
        """The direct child named ``name``, or None."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def walk(self, skip: Optional[Callable[[Union["Flow", Step]], bool]]
             = None) -> Iterator[Tuple[str, int, Union["Flow", Step]]]:
        """Every flow and step of this tree, in document order.

        Yields ``(path, depth, node)`` in pre-order, this flow first:
        ``path`` joins names with ``/`` from this flow's name, and
        ``depth`` is the nesting level of the flow that is, or holds,
        ``node`` (this flow is level 1). An explicit stack stands in for
        recursion, so no document is too deep to walk. A node for which
        ``skip`` holds is left out, with everything below it.
        """
        if skip is not None and skip(self):
            return
        stack: List[Tuple[str, int, Union["Flow", Step]]] = [
            (self.name, 1, self)]
        while stack:
            entry = stack.pop()
            yield entry
            path, depth, node = entry
            if isinstance(node, Flow):
                deeper = depth + 1
                stack.extend([(f"{path}/{child.name}",
                               deeper if isinstance(child, Flow) else depth,
                               child)
                              for child in reversed(node.children)
                              if skip is None or not skip(child)])

    def count_steps(self) -> int:
        """Total steps in this flow, at any depth."""
        return sum(isinstance(node, Step) for _, _, node in self.walk())

    def depth(self) -> int:
        """Nesting depth (a flow of steps has depth 1)."""
        return max(depth for _, depth, _ in self.walk())


# --------------------------------------------------------------------------
# Requests
# --------------------------------------------------------------------------


@dataclass
class DocumentMetadata:
    """Descriptive header on every DGL document."""

    document_id: Optional[str] = None
    created_at: Optional[float] = None
    description: Optional[str] = None


@dataclass
class FlowStatusQuery:
    """A query on the execution status of a submitted request.

    ``request_id`` is the identifier returned in the acknowledgement;
    ``path`` optionally narrows to one task, at any granularity, as a
    ``/``-joined chain of flow/step names (e.g. ``ingest/stage-2/copy``).
    ``max_depth`` optionally bounds how many levels of children the
    answer includes below the addressed node (``0`` = just that node's
    own state — the cheap poll a monitoring loop wants; ``None`` = the
    full subtree).
    """

    request_id: str
    path: Optional[str] = None
    max_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.request_id:
            raise DGLValidationError("status query needs a request id")
        if self.max_depth is not None and self.max_depth < 0:
            raise DGLValidationError("max_depth cannot be negative")


@dataclass
class DataGridRequest:
    """The top-level request document (Fig. 2)."""

    user: str
    virtual_organization: str
    body: Union[Flow, FlowStatusQuery]
    metadata: DocumentMetadata = field(default_factory=DocumentMetadata)
    #: Asynchronous requests get a RequestAcknowledgement immediately;
    #: synchronous requests block until the flow completes (Appendix A).
    asynchronous: bool = False

    @property
    def is_status_query(self) -> bool:
        return isinstance(self.body, FlowStatusQuery)


# --------------------------------------------------------------------------
# Responses
# --------------------------------------------------------------------------


class ExecutionState(enum.Enum):
    """Lifecycle of a flow, step, or whole request."""

    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (ExecutionState.COMPLETED, ExecutionState.FAILED,
                        ExecutionState.CANCELLED)


@dataclass
class FlowStatus:
    """Recursive status of one flow or step, at any granularity."""

    name: str
    state: ExecutionState
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: Loop flows report how many iterations have completed.
    iterations: int = 0
    #: A flow's nodes, in definition order; ``()`` for a step, and for
    #: a node a snapshot or document cut off below.
    children: Sequence["FlowStatus"] = ()

    def find(self, path: str) -> Optional["FlowStatus"]:
        """Descend by ``/``-joined child names ('' or None = self)."""
        if not path:
            return self
        head, _, rest = path.partition("/")
        for child in self.children:
            if child.name == head:
                return child.find(rest)
        return None

    def snapshot(self, max_depth: Optional[int] = None) -> "FlowStatus":
        """A detached copy of this subtree, to ``max_depth`` levels.

        The server's status trees are live (the engine mutates them in
        place), so answers must be copies. ``copy.deepcopy`` walks every
        field through its generic machinery; this hand-rolled copy is
        an order of magnitude cheaper — which matters because status
        polls dominate gateway traffic. ``max_depth=0`` copies just this
        node (children omitted); ``None`` copies everything below.
        """
        if max_depth == 0 or not self.children:
            children: Sequence["FlowStatus"] = ()
        else:
            deeper = None if max_depth is None else max_depth - 1
            children = [child.snapshot(deeper) for child in self.children]
        return FlowStatus(
            name=self.name, state=self.state, started_at=self.started_at,
            finished_at=self.finished_at, error=self.error,
            iterations=self.iterations, children=children)


@dataclass
class RequestAcknowledgement:
    """Immediate reply to an asynchronous request (Fig. 4)."""

    request_id: str
    state: ExecutionState
    valid: bool = True
    message: Optional[str] = None


@dataclass
class RequestRejection:
    """A shed response: the request was refused before admission.

    Unlike an invalid-document :class:`RequestAcknowledgement`
    (``valid=False`` — the *document* is wrong), a rejection says the
    document never got looked at: the submitting tenant is over its
    rate (the gateway's ``reason="throttled"``) or the service is
    saturated (``reason="queue-full"``). ``retry_after_s`` is the hint for
    when resubmission could succeed (sim seconds; ``None`` = no
    estimate).
    """

    request_id: str
    reason: str
    message: Optional[str] = None
    retry_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.reason:
            raise DGLValidationError("rejection needs a reason")


@dataclass
class DataGridResponse:
    """The top-level response document (Fig. 4)."""

    request_id: str
    body: Union[FlowStatus, RequestAcknowledgement, RequestRejection]
    metadata: DocumentMetadata = field(default_factory=DocumentMetadata)

    @property
    def is_rejection(self) -> bool:
        return isinstance(self.body, RequestRejection)
