"""The DGL expression language.

DGL documents embed small expressions in three places:

* **templates** in operation parameters — ``"/archive/${site}/file-${i}.dat"``;
* **tconditions** in user-defined rules — "a usually simple string that is
  evaluated", possibly referencing DGL variables (Appendix A);
* loop/switch control expressions — ``${count < 10}``.

Expressions inside ``${...}`` are parsed with Python's :mod:`ast` and
evaluated against the flow's variable scope by a strict whitelist
interpreter: literals, variable names, arithmetic, comparisons, boolean
logic, unary ops, and indexing. No calls, no attribute access, no
comprehensions — a DGL document can never execute arbitrary code.

Each distinct expression string is parsed once: :func:`evaluate` takes
its tree from a bounded memo of :func:`ast.parse` results, and the
whitelist runs over that (never mutated) tree on every evaluation.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Any, Mapping, Optional, Union

from repro.errors import ExpressionError

__all__ = ["Scope", "evaluate", "render_template", "evaluate_condition"]


class Scope:
    """A chain of variable bindings with lexical lookup.

    Each :class:`~repro.dgl.model.Flow` opens a scope; lookups walk outward
    to the parent, matching "each flow is like a block of code in modern
    programming languages with its own variable scope" (§4).
    """

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self._bindings: dict = {}

    def declare(self, name: str, value: Any) -> None:
        """Introduce ``name`` in *this* scope (shadows outer bindings)."""
        self._bindings[name] = value

    def lookup(self, name: str) -> Any:
        """Innermost binding of ``name``."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._bindings:
                return scope._bindings[name]
            scope = scope.parent
        raise ExpressionError(f"undefined DGL variable {name!r}")

    def assign(self, name: str, value: Any) -> None:
        """Rebind the innermost existing ``name`` (declare here if new)."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._bindings:
                scope._bindings[name] = value
                return
            scope = scope.parent
        self._bindings[name] = value

    def __contains__(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except ExpressionError:
            return False

    def flatten(self) -> dict:
        """All visible bindings (inner shadowing outer)."""
        chain = []
        scope: Optional[Scope] = self
        while scope is not None:
            chain.append(scope._bindings)
            scope = scope.parent
        merged: dict = {}
        for bindings in reversed(chain):
            merged.update(bindings)
        return merged


# --------------------------------------------------------------------------
# Whitelist evaluator
# --------------------------------------------------------------------------

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_CMP_OPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
}

_CONSTANTS = {"true": True, "false": False, "null": None}


def _eval_node(node: ast.AST, scope: Union[Scope, Mapping]) -> Any:
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, scope)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (str, int, float, bool)) or node.value is None:
            return node.value
        raise ExpressionError(f"literal type not allowed: {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        if isinstance(scope, Scope):
            return scope.lookup(node.id)
        try:
            return scope[node.id]
        except KeyError:
            raise ExpressionError(f"undefined DGL variable {node.id!r}") from None
    if isinstance(node, ast.BinOp):
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"operator not allowed: {ast.dump(node.op)}")
        return op(_eval_node(node.left, scope), _eval_node(node.right, scope))
    if isinstance(node, ast.UnaryOp):
        operand = _eval_node(node.operand, scope)
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return +operand
        if isinstance(node.op, ast.Not):
            return not operand
        raise ExpressionError(f"unary operator not allowed: {ast.dump(node.op)}")
    if isinstance(node, ast.BoolOp):
        values = [_eval_node(v, scope) for v in node.values]
        if isinstance(node.op, ast.And):
            result = True
            for value in values:
                result = result and value
            return result
        result = False
        for value in values:
            result = result or value
        return result
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, scope)
        for op_node, comparator in zip(node.ops, node.comparators):
            op = _CMP_OPS.get(type(op_node))
            if op is None:
                raise ExpressionError(f"comparison not allowed: {ast.dump(op_node)}")
            right = _eval_node(comparator, scope)
            if not op(left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        condition = _eval_node(node.test, scope)
        return _eval_node(node.body if condition else node.orelse, scope)
    if isinstance(node, ast.Subscript):
        container = _eval_node(node.value, scope)
        index = _eval_node(node.slice, scope)
        try:
            return container[index]
        except (KeyError, IndexError, TypeError) as exc:
            raise ExpressionError(f"bad subscript: {exc}") from None
    if isinstance(node, (ast.List, ast.Tuple)):
        return [_eval_node(item, scope) for item in node.elts]
    raise ExpressionError(f"syntax not allowed in DGL expressions: "
                          f"{type(node).__name__}")


#: Distinct expression strings whose parse trees :func:`_parse` keeps. A
#: long run can generate per-object literals, so the memo is bounded.
_PARSE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse(expression: str) -> ast.Expression:
    """The parse tree of a stripped expression (a failed parse raises
    and is not memoized)."""
    return ast.parse(expression, mode="eval")


def evaluate(expression: str, scope: Union[Scope, Mapping]) -> Any:
    """Evaluate a bare DGL expression (no ``${}`` wrapper) against ``scope``."""
    try:
        tree = _parse(expression.strip())
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {expression!r}: {exc}") from None
    return _eval_node(tree, scope)


_TEMPLATE_RE = re.compile(r"\$\{([^{}]*)\}")


def render_template(template: Any, scope: Union[Scope, Mapping]) -> Any:
    """Expand ``${...}`` occurrences in ``template``.

    * Non-strings pass through unchanged.
    * A template that is *exactly* one ``${expr}`` returns the expression's
      typed value (so numeric parameters stay numeric).
    * Otherwise each occurrence is stringified into the surrounding text.
    """
    if not isinstance(template, str):
        return template
    full = _TEMPLATE_RE.fullmatch(template.strip())
    if full is not None:
        return evaluate(full.group(1), scope)

    def _sub(match: re.Match) -> str:
        return str(evaluate(match.group(1), scope))

    return _TEMPLATE_RE.sub(_sub, template)


def evaluate_condition(condition: str, scope: Union[Scope, Mapping]) -> Any:
    """Evaluate a tcondition.

    Conditions are written either as a bare expression (``count < 10``) or
    with template syntax (``${count < 10}``); both forms are accepted.
    """
    condition = condition.strip()
    if _TEMPLATE_RE.fullmatch(condition):
        return render_template(condition, scope)
    return evaluate(condition, scope)
