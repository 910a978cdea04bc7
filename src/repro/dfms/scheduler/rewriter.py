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
  to a concrete compute resource by writing a ``compute`` parameter into a
  copy of the document. If the infrastructure churns afterwards (a resource
  goes offline), the pinned step fails — exactly the fragility the paper's
  late-binding argument predicts.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

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
    """Return a deep copy of ``flow`` with every exec step pinned.

    The pin is the ``compute`` parameter naming a concrete resource; the
    DfMS ``exec`` handler honours it verbatim instead of placing late.
    """
    bound = copy.deepcopy(flow)
    for _, _, node in bound.walk():
        if (isinstance(node, Step)
                and node.operation.name in _EXEC_OPERATIONS
                and "compute" not in node.operation.parameters):
            resource = placer.place(virtual_organization,
                                    task_spec_for_exec(node))
            node.operation.parameters["compute"] = resource.name
    return bound


def pinned_steps(flow: Flow) -> List[Tuple[str, str]]:
    """(step name, compute resource) for every pinned exec step."""
    return [(node.name, node.operation.parameters["compute"])
            for _, _, node in flow.walk()
            if isinstance(node, Step)
            and node.operation.name in _EXEC_OPERATIONS
            and "compute" in node.operation.parameters]
