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
