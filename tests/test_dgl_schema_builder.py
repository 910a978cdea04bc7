"""Tests for schema validation, structure introspection, the builder, and
the operation registry."""

import pytest

from repro.errors import DGLValidationError, UnknownOperationError
from repro.dgl import (
    AFTER_EXIT,
    Action,
    DataGridRequest,
    Flow,
    FlowLogic,
    FlowStatusQuery,
    Operation,
    OperationRegistry,
    Step,
    SwitchCase,
    UserDefinedRule,
    Variable,
    flow_builder,
    operation,
    structure_of,
    validate_flow,
    validate_request,
)


# -- validation ----------------------------------------------------------------

def test_duplicate_scope_variables_rejected():
    flow = Flow(name="f", variables=[Variable("x", 1), Variable("x", 2)])
    with pytest.raises(DGLValidationError, match="duplicate variable"):
        validate_flow(flow)


def test_switch_default_must_name_child():
    flow = Flow(name="f",
                logic=FlowLogic(pattern=SwitchCase(expression="m",
                                                   default="ghost")),
                children=[Flow(name="real")])
    with pytest.raises(DGLValidationError, match="names no child"):
        validate_flow(flow)


def test_empty_rule_condition_rejected():
    rule = UserDefinedRule("r", "   ", [Action("a", Operation("noop"))])
    flow = Flow(name="f", logic=FlowLogic(rules=[rule]))
    with pytest.raises(DGLValidationError, match="empty condition"):
        validate_flow(flow)


@pytest.mark.parametrize("owner", ["step", "flow"])
def test_empty_rule_action_parameter_name_rejected(dfms, owner):
    # The check a step's own operation gets, in an afterExit action too.
    rule = UserDefinedRule(AFTER_EXIT, "true", [Action(
        "log", Operation("dgl.log", {"": "x", "message": "m"}))])
    step_rules, flow_rules = ([rule], []) if owner == "step" else ([], [rule])
    flow = Flow(name="f", logic=FlowLogic(rules=flow_rules),
                children=[Step("s", Operation("dgl.noop"),
                               rules=step_rules)])
    where = "step 'f/s'" if owner == "step" else "flow 'f'"
    message = f"{where}: rule 'afterExit': empty operation parameter name"
    with pytest.raises(DGLValidationError) as refused:
        validate_flow(flow)
    assert str(refused.value) == message
    response = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))
    assert not response.body.valid
    assert response.body.message == f"invalid DGL document: {message}"


def test_validation_reports_nested_path():
    bad = Flow(name="inner", variables=[Variable("x"), Variable("x")])
    outer = Flow(name="outer", children=[Flow(name="mid", children=[bad])])
    with pytest.raises(DGLValidationError, match="outer/mid/inner"):
        validate_flow(outer)


def test_validate_request_accepts_status_query():
    validate_request(DataGridRequest(
        user="u@d", virtual_organization="",
        body=FlowStatusQuery(request_id="r")))


def test_validate_request_requires_user():
    with pytest.raises(DGLValidationError):
        validate_request(DataGridRequest(
            user="", virtual_organization="", body=Flow(name="f")))


# -- structure introspection (figure regeneration machinery) ---------------------

def test_structure_of_flow_shows_three_sections():
    text = structure_of(Flow)
    assert text.splitlines()[0] == "Flow"
    assert "variables: Variable*" in text
    assert "logic: FlowLogic" in text
    assert "children: Flow | Step*" in text


def test_structure_of_flowlogic_shows_pattern_choice():
    text = structure_of(Flow)
    assert "pattern: Sequential | Parallel | WhileLoop | Repeat | ForEach | SwitchCase" in text
    assert "rules: UserDefinedRule*" in text


def test_structure_marks_recursion():
    assert "…recursive" in structure_of(Flow, max_depth=5)


def test_structure_of_non_dataclass_rejected():
    with pytest.raises(DGLValidationError):
        structure_of(int)


# -- builder ----------------------------------------------------------------

def test_builder_sequential_steps():
    flow = (flow_builder("job")
            .variable("n", 0)
            .step("a", "dgl.noop")
            .step("b", "dgl.log", message="hi")
            .build())
    assert flow.name == "job"
    assert [c.name for c in flow.children] == ["a", "b"]
    assert flow.children[1].operation.parameters == {"message": "hi"}


def test_builder_single_pattern_enforced():
    builder = flow_builder("f").parallel()
    with pytest.raises(DGLValidationError, match="already has"):
        builder.sequential()


def test_builder_nested_flows():
    inner = flow_builder("inner").step("s", "dgl.noop")
    flow = flow_builder("outer").subflow(inner).build()
    assert isinstance(flow.children[0], Flow)
    assert flow.children[0].children[0].name == "s"


def test_builder_rules_shorthand():
    flow = (flow_builder("f")
            .before_entry(operation("dgl.log", message="in"))
            .after_exit(operation("dgl.log", message="out"))
            .build())
    assert flow.logic.rule("beforeEntry") is not None
    assert flow.logic.rule("afterExit") is not None


def test_builder_validates_on_build():
    builder = (flow_builder("f")
               .switch("mode", default="ghost")
               .step("real", "dgl.noop"))
    with pytest.raises(DGLValidationError):
        builder.build()
    assert builder.build(validate=False).name == "f"


def test_builder_step_requirements_and_assign():
    flow = (flow_builder("f")
            .step("s", "exec", assign_to="result",
                  requirements={"resourceType": "compute"},
                  duration=10)
            .build())
    step = flow.children[0]
    assert step.requirements == {"resourceType": "compute"}
    assert step.operation.assign_to == "result"


def test_operation_shorthand():
    op = operation("srb.put", assign_to="obj", path="/x", size=5)
    assert op.name == "srb.put"
    assert op.assign_to == "obj"
    assert op.parameters == {"path": "/x", "size": 5}


# -- operation registry ---------------------------------------------------------

def test_registry_register_and_get():
    registry = OperationRegistry()
    handler = lambda ctx, params: 42
    registry.register("answer", handler)
    assert registry.get("answer") is handler
    assert "answer" in registry
    assert registry.names() == ["answer"]


def test_registry_duplicate_needs_replace():
    registry = OperationRegistry()
    registry.register("op", lambda ctx, p: 1)
    with pytest.raises(UnknownOperationError):
        registry.register("op", lambda ctx, p: 2)
    registry.register("op", lambda ctx, p: 2, replace=True)
    assert registry.get("op")(None, {}) == 2


def test_registry_unknown_lists_known():
    registry = OperationRegistry()
    registry.register("known", lambda ctx, p: 1)
    with pytest.raises(UnknownOperationError, match="known"):
        registry.get("ghost")


def test_registry_decorator():
    registry = OperationRegistry()

    @registry.operation("dec")
    def handler(ctx, params):
        return "ok"

    assert registry.get("dec")(None, {}) == "ok"


def test_missing_operations_walks_steps_and_rules():
    registry = OperationRegistry()
    registry.register("known", lambda ctx, p: 1)
    rule = UserDefinedRule("beforeEntry", "true",
                           [Action("a", Operation("rule-op"))])
    flow = Flow(name="f", logic=FlowLogic(rules=[rule]), children=[
        Flow(name="sub", children=[
            Step(name="s1", operation=Operation("known")),
            Step(name="s2", operation=Operation("step-op"),
                 rules=[UserDefinedRule(
                     "afterExit", "true",
                     [Action("b", Operation("step-rule-op"))])]),
        ])])
    assert registry.missing_operations(flow) == [
        "rule-op", "step-op", "step-rule-op"]


def test_is_timed_distinguishes_generators():
    def gen():
        yield 1

    assert OperationRegistry.is_timed(gen())
    assert not OperationRegistry.is_timed(42)
