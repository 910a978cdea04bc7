"""Fluent construction of DGL flows.

The paper pairs a GUI IDE for novices with "an API based interface for
developers and expert users" (§3.1); this builder is that API surface.
It reads top-to-bottom like the flow it describes::

    flow = (
        flow_builder("nightly-archive")
        .for_each("f", collection="/ingest", query="meta:stage = 'raw'")
        .step("copy", "srb.replicate", path="${f}", resource="tape")
        .step("mark", "srb.set_metadata", path="${f}",
              attribute="stage", value="archived")
        .build()
    )
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.errors import DGLValidationError
from repro.dgl.model import (
    AFTER_EXIT,
    BEFORE_ENTRY,
    DEFAULT_LOGIC,
    SEQUENTIAL,
    Action,
    Flow,
    FlowLogic,
    ForEach,
    Operation,
    Parallel,
    Repeat,
    Step,
    SwitchCase,
    UserDefinedRule,
    Variable,
    WhileLoop,
)
from repro.dgl.schema import validate_flow

__all__ = ["FlowBuilder", "flow_builder", "operation"]


def operation(name: str, assign_to: Optional[str] = None,
              **parameters) -> Operation:
    """Shorthand for constructing an :class:`Operation`."""
    return Operation(name=name, parameters=parameters, assign_to=assign_to)


class FlowBuilder:
    """Accumulates a flow's pattern, variables, children, and rules."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._pattern = None
        self._variables: list = []
        self._children: list = []
        self._rules: list = []

    # -- control patterns (choose at most one) -------------------------------

    def _set_pattern(self, pattern) -> "FlowBuilder":
        if self._pattern is not None:
            raise DGLValidationError(
                f"flow {self._name!r} already has a control pattern")
        self._pattern = pattern
        return self

    def sequential(self) -> "FlowBuilder":
        """Children run one after another (the default)."""
        return self._set_pattern(SEQUENTIAL)

    def parallel(self, max_concurrent: int = 0) -> "FlowBuilder":
        """Children run concurrently (optionally bounded)."""
        return self._set_pattern(Parallel(max_concurrent=max_concurrent))

    def while_loop(self, condition: str) -> "FlowBuilder":
        """Children repeat while ``condition`` holds."""
        return self._set_pattern(WhileLoop(condition=condition))

    def repeat(self, count: Union[int, str]) -> "FlowBuilder":
        """Children repeat ``count`` times (int or expression)."""
        return self._set_pattern(Repeat(count=count))

    def for_each(self, item_variable: str, collection: Optional[str] = None,
                 query: Optional[str] = None,
                 items: Optional[str] = None) -> "FlowBuilder":
        """Children repeat once per matching object / list item."""
        return self._set_pattern(ForEach(
            item_variable=item_variable, collection=collection,
            query=query, items=items))

    def switch(self, expression: str,
               default: Optional[str] = None) -> "FlowBuilder":
        """Run the child named by ``expression``'s value."""
        return self._set_pattern(SwitchCase(expression=expression,
                                            default=default))

    # -- contents -------------------------------------------------------------

    def variable(self, name: str, value=None) -> "FlowBuilder":
        """Declare a variable in this flow's scope."""
        self._variables.append(Variable(name=name, value=value))
        return self

    def step(self, name: str, operation_name: str,
             assign_to: Optional[str] = None,
             requirements: Optional[Dict] = None,
             **parameters) -> "FlowBuilder":
        """Append a step executing one operation."""
        self._children.append(Step(
            name=name,
            operation=Operation(name=operation_name, parameters=parameters,
                                assign_to=assign_to),
            requirements=requirements or {}))
        return self

    def add_step(self, step: Step) -> "FlowBuilder":
        """Append an already-built step."""
        self._children.append(step)
        return self

    def subflow(self, flow: Union[Flow, "FlowBuilder"]) -> "FlowBuilder":
        """Append a nested flow."""
        if isinstance(flow, FlowBuilder):
            flow = flow.build(validate=False)
        self._children.append(flow)
        return self

    # -- rules ------------------------------------------------------------------

    def rule(self, rule: UserDefinedRule) -> "FlowBuilder":
        """Attach an arbitrary user-defined rule."""
        self._rules.append(rule)
        return self

    def before_entry(self, action_operation: Operation,
                     condition: str = "true",
                     action_name: str = "run") -> "FlowBuilder":
        """Shorthand for the reserved ``beforeEntry`` rule."""
        return self.rule(UserDefinedRule(
            name=BEFORE_ENTRY, condition=condition,
            actions=[Action(name=action_name, operation=action_operation)]))

    def after_exit(self, action_operation: Operation,
                   condition: str = "true",
                   action_name: str = "run") -> "FlowBuilder":
        """Shorthand for the reserved ``afterExit`` rule."""
        return self.rule(UserDefinedRule(
            name=AFTER_EXIT, condition=condition,
            actions=[Action(name=action_name, operation=action_operation)]))

    # -- build --------------------------------------------------------------------

    def build(self, validate: bool = True) -> Flow:
        """Produce the :class:`Flow` (validating unless told not to)."""
        # The model copies each list into a tuple, so building again
        # after more calls yields a second, independent flow.
        pattern = self._pattern or SEQUENTIAL
        logic = (DEFAULT_LOGIC if pattern is SEQUENTIAL and not self._rules
                 else FlowLogic(pattern=pattern, rules=self._rules))
        flow = Flow(name=self._name, logic=logic,
                    variables=self._variables, children=self._children)
        if validate:
            validate_flow(flow)
        return flow


def flow_builder(name: str) -> FlowBuilder:
    """Start building a flow called ``name``."""
    return FlowBuilder(name)
