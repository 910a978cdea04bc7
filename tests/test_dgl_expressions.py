"""Unit tests for the DGL expression language."""

import pytest

from repro.errors import ExpressionError
from repro.dgl import Scope, evaluate, evaluate_condition, render_template
from repro.dgl import expressions


def scope_with(**bindings):
    scope = Scope()
    for name, value in bindings.items():
        scope.declare(name, value)
    return scope


# -- scopes ------------------------------------------------------------------

def test_scope_lookup_walks_outward():
    outer = scope_with(x=1, y=2)
    inner = Scope(parent=outer)
    inner.declare("x", 10)
    assert inner.lookup("x") == 10      # shadowed
    assert inner.lookup("y") == 2       # inherited
    assert outer.lookup("x") == 1       # outer unchanged


def test_scope_assign_rebinds_innermost_existing():
    outer = scope_with(count=0)
    inner = Scope(parent=outer)
    inner.assign("count", 5)
    assert outer.lookup("count") == 5   # rebinding reaches the declaration


def test_scope_assign_declares_when_new():
    scope = Scope()
    scope.assign("fresh", 1)
    assert scope.lookup("fresh") == 1


def test_undefined_variable_raises():
    with pytest.raises(ExpressionError, match="undefined"):
        Scope().lookup("ghost")


def test_scope_flatten():
    outer = scope_with(a=1, b=2)
    inner = Scope(parent=outer)
    inner.declare("b", 20)
    assert inner.flatten() == {"a": 1, "b": 20}


def test_contains():
    scope = scope_with(x=None)
    assert "x" in scope
    assert "y" not in scope


# -- evaluate ------------------------------------------------------------------

def test_arithmetic_and_precedence():
    assert evaluate("1 + 2 * 3", {}) == 7
    assert evaluate("(1 + 2) * 3", {}) == 9
    assert evaluate("7 // 2", {}) == 3
    assert evaluate("7 % 2", {}) == 1
    assert evaluate("2 ** 10", {}) == 1024
    assert evaluate("-x", {"x": 4}) == -4


def test_comparisons_and_chaining():
    assert evaluate("1 < 2 < 3", {})
    assert not evaluate("1 < 2 > 5", {})
    assert evaluate("'a' != 'b'", {})


def test_boolean_logic():
    assert evaluate("true and not false", {})
    assert evaluate("false or 1 == 1", {})
    assert evaluate("null", {}) is None


def test_conditional_expression():
    assert evaluate("'big' if size > 10 else 'small'", {"size": 100}) == "big"


def test_string_concat_and_membership():
    assert evaluate("'ab' + 'cd'", {}) == "abcd"
    assert evaluate("'b' in name", {"name": "abc"})


def test_subscript_and_lists():
    assert evaluate("[1, 2, 3][1]", {}) == 2
    assert evaluate("items[0]", {"items": ["x"]}) == "x"
    with pytest.raises(ExpressionError):
        evaluate("items[9]", {"items": []})


def test_scope_object_usable_directly():
    assert evaluate("x * 2", scope_with(x=21)) == 42


def test_calls_and_attributes_forbidden():
    with pytest.raises(ExpressionError):
        evaluate("open('/etc/passwd')", {})
    with pytest.raises(ExpressionError):
        evaluate("x.__class__", {"x": 1})


def test_syntax_error_reported():
    with pytest.raises(ExpressionError, match="cannot parse"):
        evaluate("1 +", {})


# -- the parse memo ------------------------------------------------------------

def test_malformed_expression_raises_on_every_call():
    # A failed parse is not memoized: the second call parses again.
    for _ in range(2):
        with pytest.raises(ExpressionError, match="cannot parse"):
            evaluate("size >", {"size": 1})


@pytest.mark.parametrize("expression", ["__import__('os')", "a.b"])
def test_disallowed_expression_raises_on_every_call(expression):
    # It parses, so its tree is memoized; the whitelist still runs on it.
    for _ in range(2):
        with pytest.raises(ExpressionError, match="not allowed"):
            evaluate(expression, {"a": 1})


def test_one_expression_evaluates_against_each_scope():
    assert evaluate(" size > 150 ", {"size": 200}) is True
    assert evaluate("size > 150", scope_with(size=100)) is False
    assert evaluate("size > 150", {"size": 151}) is True


def test_parse_memo_stays_at_its_bound():
    bound = expressions._PARSE_MEMO_SIZE
    for index in range(bound + 10):
        assert evaluate(f"{index} + n", {"n": 1}) == index + 1
    assert expressions._parse.cache_info().currsize == bound


# -- templates ------------------------------------------------------------------

def test_full_template_preserves_type():
    assert render_template("${n + 1}", {"n": 1}) == 2
    assert render_template("${n}", {"n": 1.5}) == 1.5


def test_embedded_template_stringifies():
    result = render_template("/archive/${site}/f-${i}.dat",
                             {"site": "ral", "i": 3})
    assert result == "/archive/ral/f-3.dat"


def test_template_without_placeholders_passes_through():
    assert render_template("plain", {}) == "plain"
    assert render_template(42, {}) == 42
    assert render_template(None, {}) is None


def test_multiple_placeholders():
    assert render_template("${a}-${b}", {"a": 1, "b": 2}) == "1-2"


# -- conditions ------------------------------------------------------------------

def test_condition_bare_and_wrapped_forms():
    assert evaluate_condition("count < 10", {"count": 5})
    assert evaluate_condition("${count < 10}", {"count": 5})
    assert not evaluate_condition("count < 10", {"count": 10})


def test_condition_returning_action_name():
    scope = {"severity": "high"}
    assert evaluate_condition(
        "'page' if severity == 'high' else 'log'", scope) == "page"
