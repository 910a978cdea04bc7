"""DGL schema: semantic validation and structure introspection.

Two jobs:

* :func:`validate_flow` / :func:`validate_request` enforce the structural
  rules of Appendix A that go beyond per-class invariants — unique variable
  names per scope, homogeneous children, switch defaults naming real
  children, well-formed nested rule operations.

* :func:`structure_of` renders the element structure of any DGL model class
  as a text tree **derived from the dataclasses themselves** (via
  :func:`typing.get_type_hints`). The figure-reproduction benchmarks
  (DESIGN.md F1–F4) regenerate the paper's four schema figures from this,
  so the documented structure can never drift from the implementation.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import operator
import typing
from typing import List, Union

from repro.errors import DGLValidationError
from repro.dgl.model import DataGridRequest, Flow, FlowStatusQuery

__all__ = ["validate_flow", "validate_request", "structure_of"]

#: True for a node :func:`validate_flow` has passed, with its subtree.
_VALID = operator.attrgetter("_valid")


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


def validate_flow(flow: Flow) -> None:
    """Validate a flow tree; raises :class:`DGLValidationError` on problems.

    Nodes are checked in document order, so the error raised is the
    first problem in the document. Every check reads one node, and a
    tree is immutable, so a tree that passes is marked valid node by
    node. A later call skips every marked subtree: it has nothing to
    report, and the first problem stays the same.
    """
    passed = []
    for path, _, node in flow.walk(skip=_VALID):
        if isinstance(node, Flow):
            where, rules = f"flow {path!r}", node.logic.rules
        else:
            where, rules = f"step {path!r}", node.rules
        names = [variable.name for variable in node.variables]
        if len(names) != len(set(names)):
            raise DGLValidationError(
                f"{where} declares duplicate variable names")
        for rule in rules:
            if not rule.condition.strip():
                raise DGLValidationError(
                    f"{where}: rule {rule.name!r} has an empty condition")
            if not all(all(action.operation.parameters)
                       for action in rule.actions):
                raise DGLValidationError(
                    f"{where}: rule {rule.name!r}: empty operation "
                    "parameter name")
        if isinstance(node, Flow):
            # A switch default must name an actual child.
            default = getattr(node.logic.pattern, "default", None)
            if default is not None and node.child(default) is None:
                raise DGLValidationError(
                    f"{where}: switch default {default!r} names no child")
        elif not all(node.operation.parameters):
            raise DGLValidationError(
                f"{where}: empty operation parameter name")
        passed.append(node)
    for node in passed:
        object.__setattr__(node, "_valid", True)


def validate_request(request: DataGridRequest) -> None:
    """Validate a full request document.

    A flow :func:`validate_flow` has passed stays valid, so it is not
    walked again.
    """
    if not request.user:
        raise DGLValidationError("request needs a grid user")
    body = request.body
    if isinstance(body, FlowStatusQuery) or body._valid:
        return
    validate_flow(body)


# --------------------------------------------------------------------------
# Structure introspection (figure regeneration)
# --------------------------------------------------------------------------


#: Annotation origins rendered as a repeated element: ``List[X]``, the
#: model's ``Tuple[X, ...]`` and ``Sequence[X]``.
_SEQUENCES = (list, tuple, collections.abc.Sequence)


def _type_label(annotation) -> str:
    """Human-readable label for one field annotation."""
    origin = typing.get_origin(annotation)
    if origin is Union:
        args = [arg for arg in typing.get_args(annotation)
                if arg is not type(None)]
        label = " | ".join(_type_label(arg) for arg in args)
        if type(None) in typing.get_args(annotation):
            label += "?"
        return label
    if origin in _SEQUENCES:
        return f"{_type_label(typing.get_args(annotation)[0])}*"
    if origin is dict:
        key, value = typing.get_args(annotation)
        return f"map<{_type_label(key)}, {_type_label(value)}>"
    if dataclasses.is_dataclass(annotation):
        return annotation.__name__
    name = getattr(annotation, "__name__", None)
    return name if name is not None else str(annotation)


def _expandable_classes(annotation) -> list:
    """Dataclasses mentioned by an annotation, for recursive expansion."""
    origin = typing.get_origin(annotation)
    if origin is Union:
        out = []
        for arg in typing.get_args(annotation):
            out.extend(_expandable_classes(arg))
        return out
    if origin in _SEQUENCES:
        return _expandable_classes(typing.get_args(annotation)[0])
    if dataclasses.is_dataclass(annotation) and isinstance(annotation, type):
        return [annotation]
    return []


def structure_of(cls, max_depth: int = 3) -> str:
    """Render ``cls``'s element structure as an indented text tree.

    Each dataclass expands once per path (recursion, as in Flow → Flow,
    is marked ``…recursive``), and expansion stops at ``max_depth``.
    """
    if not dataclasses.is_dataclass(cls):
        raise DGLValidationError(f"{cls!r} is not a DGL model class")
    lines: List[str] = [cls.__name__]

    def _expand(klass, prefix: str, seen: tuple, depth: int) -> None:
        try:
            hints = typing.get_type_hints(klass)
        except Exception:
            hints = {field.name: field.type
                     for field in dataclasses.fields(klass)}
        # Memo fields (init=False) are not part of the document.
        fields = [field for field in dataclasses.fields(klass) if field.init]
        for index, field in enumerate(fields):
            last = index == len(fields) - 1
            connector = "└── " if last else "├── "
            annotation = hints.get(field.name, field.type)
            lines.append(f"{prefix}{connector}{field.name}: "
                         f"{_type_label(annotation)}")
            child_prefix = prefix + ("    " if last else "│   ")
            if depth >= max_depth:
                continue
            for child_cls in _expandable_classes(annotation):
                if child_cls in seen:
                    lines.append(f"{child_prefix}({child_cls.__name__} …recursive)")
                    continue
                _expand(child_cls, child_prefix, seen + (child_cls,), depth + 1)

    _expand(cls, "", (cls,), 1)
    return "\n".join(lines)
