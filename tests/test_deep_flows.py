"""Flows nested deeper than Python's recursion limit.

Admission refuses a flow nested beyond ``MAX_NESTING_DEPTH``; it must say
so with a ``valid=False`` answer at any depth, on every path that starts a
flow, and the flow-tree checks it runs must return on any document. Each
chain here is built with a loop, so the test itself never recurses.
"""

from repro.dfms import bind_default_operations
from repro.dfms.engine import MAX_NESTING_DEPTH
from repro.dfms.gateway import DfMSGateway
from repro.dgl import (
    DataGridRequest,
    ExecutionState,
    Flow,
    Operation,
    Step,
    flow_builder,
    validate_flow,
)


def chain(levels, **parameters):
    """A flow nested ``levels`` deep whose innermost flow holds one
    ``srb.put`` step with ``parameters``."""
    flow = Flow(name="n", children=[
        Step(name="s", operation=Operation("srb.put", parameters))])
    for _ in range(levels - 1):
        flow = Flow(name="n", children=[flow])
    return flow


def request(dfms, flow):
    return DataGridRequest(user=dfms.alice.qualified_name,
                           virtual_organization="vo", body=flow)


#: Every parameter ``srb.put`` requires: depth is a document's only fault.
COMPLETE = {"path": "/home/alice/x", "size": 1.0, "resource": "sdsc-disk"}
DEEP_MESSAGE = (f"flow nests 1200 levels deep; "
                f"the engine supports at most {MAX_NESTING_DEPTH}")


def test_walker_checks_return_on_a_5000_level_chain():
    flow = chain(5000, path="/x")
    registry = bind_default_operations()
    validate_flow(flow)
    assert registry.missing_operations(flow) == []
    (problem,) = registry.parameter_problems(flow)
    assert problem.startswith("step 'n/n/n/")
    assert problem.endswith("srb.put is missing required parameter(s) "
                            "size, resource")
    assert flow.depth() == 5000
    assert flow.count_steps() == 1


def test_submit_refuses_an_over_deep_flow(dfms):
    response = dfms.server.submit(request(dfms, chain(1200, **COMPLETE)))
    assert not response.body.valid
    assert response.body.message == DEEP_MESSAGE
    assert dfms.server.executions() == []


def test_gateway_refuses_an_over_deep_flow_and_keeps_serving(dfms):
    ok = flow_builder("ok").step("s", "dgl.sleep", duration=1).build()
    gateway = DfMSGateway(dfms.env, dfms.server)
    answers = {}

    def client(name, flow):
        answers[name] = yield from gateway.submit_sync(request(dfms, flow))

    dfms.env.process(client("deep", chain(1200, **COMPLETE)))
    dfms.env.process(client("ok", ok))
    dfms.env.run()
    assert not answers["deep"].body.valid
    assert answers["deep"].body.message == DEEP_MESSAGE
    assert answers["ok"].body.state is ExecutionState.COMPLETED
