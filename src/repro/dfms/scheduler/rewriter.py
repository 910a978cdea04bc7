"""Abstract → infrastructure-based execution logic rewriting.

"The Execution Logic is converted dynamically into Infrastructure-based
Execution Logic just before the execution of the tasks … An analogy for
this process could be the query re-writing or optimization of SQL before a
final query plan is generated" (§2.3).

Two binding disciplines live here:

* **Late binding** is the default: ``exec`` steps carry abstract
  requirements, and the :class:`~repro.dfms.scheduler.placer.Placer` binds
  each one at the moment it runs. Nothing to do ahead of time.
* **Early binding** (:func:`bind_flow_early`) is the baseline for
  experiment E5: walk the flow once, up front, and pin every ``exec`` step
  to a concrete compute resource by giving it a ``compute`` parameter, in
  a rewritten tree. If the infrastructure churns afterwards (a resource
  goes offline), the pinned step fails — exactly the fragility the paper's
  late-binding argument predicts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple, Union

from repro.errors import ExpressionError
from repro.dfms.scheduler.cost import TaskSpec
from repro.dfms.scheduler.placer import Placer
from repro.dgl.expressions import render_template
from repro.dgl.model import Flow, Step

__all__ = ["bind_flow_early", "task_spec_for_exec", "pinned_steps"]

#: Operation names the rewriter binds.
_EXEC_OPERATIONS = ("exec",)


def task_spec_for_exec(step: Step, scope=None) -> TaskSpec:
    """Build a :class:`TaskSpec` from an ``exec`` step's parameters.

    Template parameters that cannot be resolved yet (loop variables, at
    early-binding time) degrade gracefully: unknown inputs are treated as
    absent, which is precisely the information deficit that makes early
    binding inferior for iterative flows.
    """
    params = step.operation.parameters

    def _render(value, default):
        if value is None:
            return default
        try:
            return render_template(value, scope or {})
        except ExpressionError:
            return default

    duration = float(_render(params.get("duration", 0.0), 0.0) or 0.0)
    inputs_text = _render(params.get("inputs"), "") or ""
    input_paths = tuple(p for p in str(inputs_text).split(",") if p)
    output_size = float(_render(params.get("output_size", 0.0), 0.0) or 0.0)
    return TaskSpec(name=step.name, duration=duration,
                    input_paths=input_paths, output_size=output_size,
                    requirements=dict(step.requirements))


def bind_flow_early(flow: Flow, virtual_organization: str,
                    placer: Placer) -> Flow:
    """``flow`` rewritten with every exec step pinned.

    The pin is the ``compute`` parameter naming a concrete resource; the
    DfMS ``exec`` handler honours it verbatim instead of placing late.
    Steps are placed in document order. The rewrite builds new nodes
    only for the pinned steps and the flows above them
    (:func:`dataclasses.replace`); ``flow`` is unchanged, and every other
    subtree is shared with it.
    """
    rewritten: Dict[str, Union[Flow, Step]] = {}
    flows: List[Tuple[str, Flow]] = []
    for path, _, node in flow.walk():
        if isinstance(node, Flow):
            flows.append((path, node))
        elif (node.operation.name in _EXEC_OPERATIONS
                and "compute" not in node.operation.parameters):
            resource = placer.place(virtual_organization,
                                    task_spec_for_exec(node))
            operation = node.operation
            rewritten[path] = replace(node, operation=replace(
                operation, parameters={**operation.parameters,
                                       "compute": resource.name}))
    # In reverse document order every flow comes after the flows below it.
    for path, node in reversed(flows):
        children = tuple(rewritten.get(f"{path}/{child.name}", child)
                         for child in node.children)
        if any(new is not old for new, old in zip(children, node.children)):
            rewritten[path] = replace(node, children=children)
    return rewritten.get(flow.name, flow)


def pinned_steps(flow: Flow) -> List[Tuple[str, str]]:
    """(step name, compute resource) for every pinned exec step."""
    return [(node.name, node.operation.parameters["compute"])
            for _, _, node in flow.walk()
            if isinstance(node, Step)
            and node.operation.name in _EXEC_OPERATIONS
            and "compute" in node.operation.parameters]
