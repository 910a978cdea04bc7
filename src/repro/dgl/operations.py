"""The DGL operation registry.

"DGL supports a number of DataGrid related operations for SDSC's Storage
Resource Broker (SRB) or execution of business logic (code) by the DfMS
server" (Appendix A). The registry maps operation names to handlers; the
DfMS binds the datagrid operations (``srb.*``), business-logic execution
(``exec``), and control utilities (``dgl.*``) when it starts — see
:mod:`repro.dfms.bindings`.

A handler is called as ``handler(context, params)`` where ``params`` are
the step's parameters with all ``${...}`` templates already expanded.
Handlers may return a plain value (instant operations) or a generator to
run as a simulation process (timed operations).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.errors import UnknownOperationError
from repro.dgl.model import Flow, Operation, Step

__all__ = ["OperationHandler", "OperationRegistry"]

#: Handler signature: (execution context, expanded parameters) -> result.
OperationHandler = Callable[[Any, Dict[str, Any]], Any]


class OperationRegistry:
    """Name → handler mapping with registration helpers."""

    def __init__(self) -> None:
        self._handlers: Dict[str, OperationHandler] = {}
        self._required_params: Dict[str, tuple] = {}
        # The token a step admitted under this registry's current state
        # keeps (see check). A bare object() is not tracked by the
        # collector, and unlike a counter it cannot repeat in another
        # registry while a step still holds it.
        self._token = object()

    def register(self, name: str, handler: OperationHandler,
                 replace: bool = False,
                 required_params: tuple = ()) -> None:
        """Bind ``handler`` to operation ``name``.

        ``required_params`` declares parameters every use of the operation
        must supply (values may still be ``${...}`` templates); documents
        missing them are rejected at admission, before anything runs —
        the "SQL for datagrids" stance applied to static checking. Every
        path that starts a flow admits it first, so the handler reads a
        required parameter from ``params`` without checking for it.
        """
        if name in self._handlers and not replace:
            raise UnknownOperationError(
                f"operation {name!r} is already registered")
        self._handlers[name] = handler
        self._required_params[name] = tuple(required_params)
        self._token = object()

    def operation(self, name: str) -> Callable[[OperationHandler], OperationHandler]:
        """Decorator form of :meth:`register`."""

        def _decorator(handler: OperationHandler) -> OperationHandler:
            self.register(name, handler)
            return handler

        return _decorator

    def get(self, name: str) -> OperationHandler:
        """The handler for ``name``; raises :class:`UnknownOperationError`."""
        try:
            return self._handlers[name]
        except KeyError:
            raise UnknownOperationError(
                f"unknown operation {name!r} "
                f"(registered: {sorted(self._handlers)})") from None

    def names(self) -> List[str]:
        """Registered operation names, sorted."""
        return sorted(self._handlers)

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    # -- static checking -------------------------------------------------------

    def missing_operations(self, flow: Flow) -> List[str]:
        """Operation names used anywhere in ``flow`` but not registered.

        Covers step operations and rule-action operations at any depth —
        run before execution to fail fast on a typo in a DGL document.
        """
        return sorted({operation.name for _, operation in _operations(flow)
                       if operation.name not in self})

    def parameter_problems(self, flow: Flow) -> List[str]:
        """Required-parameter violations anywhere in ``flow``.

        Only steps whose operation *is* registered are checked (unknown
        operations are :meth:`missing_operations`' job). Rule-action
        operations are checked too.
        """
        problems: List[str] = []
        for where, operation in _operations(flow):
            required = self._required_params.get(operation.name)
            if not required:
                continue
            missing = [parameter for parameter in required
                       if parameter not in operation.parameters]
            if missing:
                problems.append(
                    f"{where}: {operation.name} is missing required "
                    f"parameter(s) {', '.join(missing)}")
        return problems

    def check(self, flow: Flow) -> Tuple[List[str], List[str], int]:
        """:meth:`missing_operations`, :meth:`parameter_problems` and
        ``flow.depth()``, from one walk.

        A step whose operations are all registered with their required
        parameters is marked with the registry's current token, which
        :meth:`register` renews. Its definition is immutable, so a later
        check under the same token skips it: it adds no problem, and a
        step does not deepen the flow that holds it.
        """
        token = self._token
        unknown = set()
        problems: List[str] = []
        deepest = 0
        for path, depth, node in flow.walk():
            if isinstance(node, Step):
                if node._admitted is token:
                    continue
                where, rules = f"step {path!r}", node.rules
                clean = self._check_operation(where, node.operation,
                                              unknown, problems)
            else:
                if depth > deepest:
                    deepest = depth
                where, rules = f"flow {path!r}", node.logic.rules
                clean = True
            for rule in rules:
                for action in rule.actions:
                    clean &= self._check_operation(
                        f"{where} rule {rule.name!r}", action.operation,
                        unknown, problems)
            if clean and isinstance(node, Step):
                object.__setattr__(node, "_admitted", token)
        return sorted(unknown), problems, deepest

    def _check_operation(self, where: str, operation: Operation,
                         unknown: set, problems: List[str]) -> bool:
        """Note ``operation``'s problem, if any; True if it has none."""
        name = operation.name
        if name not in self._handlers:
            unknown.add(name)
            return False
        required = self._required_params[name]
        if required:
            parameters = operation.parameters
            missing = [parameter for parameter in required
                       if parameter not in parameters]
            if missing:
                problems.append(
                    f"{where}: {name} is missing required "
                    f"parameter(s) {', '.join(missing)}")
                return False
        return True

    @staticmethod
    def is_timed(result: Any) -> bool:
        """True if a handler result is a generator to run in virtual time."""
        return inspect.isgenerator(result)


def _operations(flow: Flow) -> Iterator[Tuple[str, Operation]]:
    """``(where, operation)`` for every operation in ``flow``.

    Document order: a step's own operation, then its rules' actions; a
    flow's rule actions come before its children's operations.
    """
    for path, _, node in flow.walk():
        if isinstance(node, Step):
            where, rules = f"step {path!r}", node.rules
            yield where, node.operation
        else:
            where, rules = f"flow {path!r}", node.logic.rules
        for rule in rules:
            for action in rule.actions:
                yield f"{where} rule {rule.name!r}", action.operation
