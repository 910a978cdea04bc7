"""Definition trees are immutable values, checked once and shared.

Every definition node is frozen, and an operation's parameters and a
step's requirements are read-only, so producers that repeat a shape
share it: the traffic generator's sessions share their steps, stored
procedure calls share the stored body, and early binding rebuilds only
the paths to the steps it pins. Admission does not validate a tree that
``validate_flow`` already passed, and it remembers which steps it
admitted only until the registry changes.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.dfms import ProcedureParameter, StoredProcedure
from repro.dfms.scheduler import bind_flow_early, pinned_steps
from repro.dgl import (
    AFTER_EXIT,
    Action,
    DataGridRequest,
    Flow,
    FlowLogic,
    ForEach,
    Operation,
    Parallel,
    Repeat,
    Sequential,
    Step,
    SwitchCase,
    UserDefinedRule,
    Variable,
    WhileLoop,
    flow_builder,
)
from repro.dgl import schema
from repro.sim.rng import RandomStreams
from repro.workloads.traffic import TrafficGenerator, TrafficProfile

NOOP = Operation("dgl.noop")

#: One node of every definition class.
DEFINITIONS = [
    Variable("x", 1),
    Operation("dgl.log", {"message": "hi"}),
    Action("run", NOOP),
    UserDefinedRule(AFTER_EXIT, "true", [Action("run", NOOP)]),
    Sequential(),
    Parallel(max_concurrent=2),
    WhileLoop("x < 3"),
    Repeat(2),
    ForEach("item", items="[1]"),
    SwitchCase("mode", default="a"),
    FlowLogic(pattern=Parallel(), rules=[UserDefinedRule(
        AFTER_EXIT, "true", [Action("run", NOOP)])]),
    Step("s", NOOP, variables=[Variable("y")],
         requirements={"min_cores": 2}),
    Flow("f", variables=[Variable("z")], children=[Step("s", NOOP)]),
]


def test_every_definition_class_is_covered():
    assert {type(node) for node in DEFINITIONS} == {
        Variable, Operation, Action, UserDefinedRule, Sequential, Parallel,
        WhileLoop, Repeat, ForEach, SwitchCase, FlowLogic, Step, Flow}


@pytest.mark.parametrize("node", DEFINITIONS,
                         ids=lambda node: type(node).__name__)
def test_no_field_of_a_definition_can_be_assigned(node):
    for field in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field.name, getattr(node, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, field.name)
    # Nor can a name be added. (Python 3.11's frozen, slotted
    # __setattr__ raises TypeError for a name that is not a field.)
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        node.extra = 1


def test_parameters_and_requirements_are_read_only():
    given = {"duration": 1.0}
    step = Step("s", Operation("exec", given),
                requirements={"min_cores": 2})
    given["duration"] = 9.0   # the node keeps its own copy
    assert step.operation.parameters == {"duration": 1.0}
    for mapping in (step.operation.parameters, step.requirements):
        with pytest.raises(TypeError):
            mapping["compute"] = "elsewhere"
        with pytest.raises(TypeError):
            del mapping[next(iter(mapping))]
        assert not hasattr(mapping, "update")
    assert step.operation.parameters == {"duration": 1.0}
    assert step.requirements == {"min_cores": 2}


def test_defaults_are_shared_constants():
    bare = Flow("f", children=[Step("a", NOOP), Step("b", Operation("x"))])
    built = flow_builder("g").step("a", "dgl.noop").build()
    assert bare.logic is built.logic
    assert bare.logic.pattern is flow_builder("h").sequential().build(
    ).logic.pattern
    first, second = bare.children
    assert first.requirements == {} and second.operation.parameters == {}


class NamingPlacer:
    """Names a fresh compute resource per call."""

    def __init__(self):
        self.calls = 0

    def place(self, virtual_organization, task):
        self.calls += 1
        return SimpleNamespace(name=f"compute-{self.calls}")


def early_binding_input():
    """Exec steps to pin in ``outer/work``; one already pinned in
    ``outer/fixed``; none in ``outer/plain``."""
    work = (flow_builder("work")
            .step("run", "exec", duration=1.0)
            .step("note", "dgl.noop")
            .step("again", "exec", duration=2.0))
    fixed = flow_builder("fixed").step("run", "exec", compute="pinned")
    plain = flow_builder("plain").step("log", "dgl.log", message="hi")
    return (flow_builder("outer").parallel()
            .subflow(work).subflow(fixed).subflow(plain).build())


def test_early_binding_leaves_its_input_and_shares_what_it_did_not_pin():
    flow = early_binding_input()
    bound = bind_flow_early(flow, "vo", NamingPlacer())
    assert flow == early_binding_input()
    assert pinned_steps(flow) == [("run", "pinned")]
    assert pinned_steps(bound) == [("run", "compute-1"),
                                   ("again", "compute-2"), ("run", "pinned")]
    pins = ("outer/work/run", "outer/work/again")
    original = {path: node for path, _, node in flow.walk()}
    for path, _, node in bound.walk():
        rewritten = any(pin == path or pin.startswith(f"{path}/")
                        for pin in pins)
        assert (node is not original[path]) == rewritten, path


def test_early_binding_without_exec_steps_returns_the_flow_itself():
    flow = flow_builder("f").step("s", "dgl.noop").build()
    assert bind_flow_early(flow, "vo", NamingPlacer()) is flow


def test_procedure_calls_share_the_stored_body(dfms):
    body = flow_builder("body").step("log", "dgl.log",
                                     message="${note}").build()
    procedures = dfms.server.procedures
    procedures.define(StoredProcedure(
        name="touch", flow=body, parameters=[ProcedureParameter("note")]))
    calls = [procedures.call(dfms.alice, "touch", {"note": note})
             for note in ("a", "b")]
    assert all(call.body.valid for call in calls)
    wrappers = [dfms.server.execution(call.request_id).flow
                for call in calls]
    assert wrappers[0] is not wrappers[1]
    assert all(wrapper.children[0] is body for wrapper in wrappers)


def test_one_generators_sessions_share_their_steps(dfms):
    TrafficGenerator(dfms.env, dfms.server, dfms.alice.qualified_name,
                     TrafficProfile(query_collection="/home/alice",
                                    mean_interarrival_s=2.0),
                     streams=RandomStreams(3), horizon_s=30.0).start()
    dfms.env.run()
    flows = [execution.flow for execution in dfms.server.executions()]
    assert len(flows) > 3
    assert len({flow.name for flow in flows}) == len(flows)
    first = flows[0].children
    assert [step.name for step in first] == ["lookup", "s0", "s1"]
    for flow in flows[1:]:
        assert len(flow.children) == len(first)
        assert all(step is shared
                   for step, shared in zip(flow.children, first))


def test_admission_does_not_validate_a_validated_tree_again(dfms,
                                                            monkeypatch):
    walked = []
    validate = schema.validate_flow
    monkeypatch.setattr(schema, "validate_flow",
                        lambda flow: walked.append(flow.name) or
                        validate(flow))
    built = flow_builder("built").step("s", "dgl.noop").build()
    direct = Flow("direct", children=[Step("s", NOOP)])
    for flow in (built, direct, direct):
        response = dfms.server.submit(DataGridRequest(
            user=dfms.alice.qualified_name, virtual_organization="vo",
            body=flow))
        assert response.body.valid
    assert walked == ["direct"]


def test_a_registration_renews_what_admission_remembers(dfms):
    server = dfms.server
    request = DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow_builder("f").step("s", "dgl.noop").build())
    assert server.admission_error(request) is None
    assert server.admission_error(request) is None
    server.registry.register("dgl.noop", server.registry.get("dgl.noop"),
                             replace=True, required_params=("why",))
    assert server.admission_error(request) == (
        "step 'f/s': dgl.noop is missing required parameter(s) why")
