"""Text rendering of flows and status trees.

The paper pairs DGL with a graphical IDE (VERGIL/MoML) for novice users
(§3.2). A GUI is out of scope here (DESIGN.md §2), but the *rendering*
half — "view the datagridflow rendered" — is valuable for any CLI user:
:func:`render_flow` draws the recursive structure with its control
patterns, variables, and rules; :func:`render_status` draws a live or
final status tree with states and timings.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, Union

from repro.dgl.model import (
    ExecutionState,
    Flow,
    FlowLogic,
    FlowStatus,
    ForEach,
    Parallel,
    Repeat,
    Sequential,
    Step,
    SwitchCase,
    WhileLoop,
)

__all__ = ["render_flow", "render_status", "pattern_label"]

_STATE_MARKS = {
    ExecutionState.PENDING: " ",
    ExecutionState.RUNNING: "~",
    ExecutionState.PAUSED: "=",
    ExecutionState.COMPLETED: "+",
    ExecutionState.FAILED: "!",
    ExecutionState.CANCELLED: "x",
}


def pattern_label(pattern) -> str:
    """Compact human label for a control pattern."""
    if isinstance(pattern, Sequential):
        return "sequential"
    if isinstance(pattern, Parallel):
        if pattern.max_concurrent:
            return f"parallel(max={pattern.max_concurrent})"
        return "parallel"
    if isinstance(pattern, WhileLoop):
        return f"while({pattern.condition})"
    if isinstance(pattern, Repeat):
        return f"repeat({pattern.count})"
    if isinstance(pattern, ForEach):
        source = (pattern.collection if pattern.collection is not None
                  else pattern.items)
        if pattern.query:
            source = f"{source} where {pattern.query}"
        return f"forEach {pattern.item_variable} in {source}"
    if isinstance(pattern, SwitchCase):
        label = f"switch({pattern.expression})"
        if pattern.default:
            label += f" default={pattern.default}"
        return label
    return type(pattern).__name__


def _logic_lines(logic: FlowLogic) -> List[str]:
    lines = []
    for rule in logic.rules:
        actions = ", ".join(action.name for action in rule.actions)
        lines.append(f"rule {rule.name}: {rule.condition!r} -> [{actions}]")
    return lines


def _draw(root, describe: Callable, children_of: Callable) -> str:
    """Draw a tree with ASCII connectors, from an explicit stack.

    ``describe(node)`` gives the node's own line and the detail lines
    printed under it; ``children_of(node)`` lists the nodes drawn below.
    """
    lines: List[str] = []
    stack = [(root, "", "")]
    while stack:
        node, head, prefix = stack.pop()
        line, details = describe(node)
        lines.append(head + line)
        lines.extend(f"{prefix}| {detail}" for detail in details)
        children = children_of(node)
        for index in reversed(range(len(children))):
            last = index == len(children) - 1
            stack.append((children[index],
                          prefix + ("`-- " if last else "|-- "),
                          prefix + ("    " if last else "|   ")))
    return "\n".join(lines)


def _describe_flow_node(node: Union[Flow, Step]) -> Tuple[str, List[str]]:
    if isinstance(node, Step):
        extras = []
        if node.operation.assign_to:
            extras.append(f"-> {node.operation.assign_to}")
        if node.requirements:
            extras.append(f"req={node.requirements}")
        suffix = (" " + " ".join(extras)) if extras else ""
        return f"[step] {node.name}: {node.operation.name}{suffix}", []
    details: List[str] = []
    if node.variables:
        bindings = ", ".join(f"{v.name}={v.value!r}" for v in node.variables)
        details.append(f"vars: {bindings}")
    details.extend(_logic_lines(node.logic))
    return (f"[flow] {node.name} ({pattern_label(node.logic.pattern)})",
            details)


def _describe_status(node: FlowStatus) -> Tuple[str, List[str]]:
    timing = ""
    if node.started_at is not None:
        end = (f"{node.finished_at:.2f}"
               if node.finished_at is not None else "...")
        timing = f"  [{node.started_at:.2f} .. {end}]"
    extras = ""
    if node.iterations:
        extras += f"  x{node.iterations}"
    if node.error:
        extras += f"  error: {node.error}"
    return (f"[{_STATE_MARKS[node.state]}] {node.name} "
            f"{node.state.value}{timing}{extras}"), []


def render_flow(flow: Flow) -> str:
    """Draw a flow definition as an indented tree."""
    return _draw(flow, _describe_flow_node,
                 lambda node: node.children if isinstance(node, Flow) else [])


def render_status(status: FlowStatus) -> str:
    """Draw a status tree with states and timings."""
    return _draw(status, _describe_status, lambda node: node.children)
