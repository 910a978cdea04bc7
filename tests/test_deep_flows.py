"""Flows nested deeper than Python's recursion limit.

Admission refuses a flow nested beyond ``MAX_NESTING_DEPTH``; it must say
so with a ``valid=False`` answer at any depth, on every path that starts a
flow, and the flow-tree checks it runs must return on any document. Every
reader and the renderer must take such a document too, so that admission
gets to answer it. Each chain and document here is built with a loop, so
the test itself never recurses.
"""

import pytest

from repro.cli import main
from repro.dfms import bind_default_operations
from repro.dfms.checkpoint import FORMAT_VERSION, restore_execution
from repro.dfms.engine import MAX_NESTING_DEPTH
from repro.dfms.gateway import DfMSGateway
from repro.dgl import (
    DataGridRequest,
    ExecutionState,
    Flow,
    Operation,
    Step,
    flow_builder,
    moml_to_flow,
    render_flow,
    render_status,
    request_from_xml,
    response_from_xml,
    validate_flow,
)
from repro.errors import CheckpointError
from repro.triggers import trigger_from_xml


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


# -- 1 200-level documents through every reader ----------------------------

LEVELS = 1200


def deep_flow_xml(levels=LEVELS):
    """A DGL ``<flow>`` nested ``levels`` deep around one complete
    ``srb.put`` step."""
    step = ("<step name='s'><operation name='srb.put'>"
            "<parameter name='path' type='str' value='/home/alice/x'/>"
            "<parameter name='size' type='float' value='1.0'/>"
            "<parameter name='resource' type='str' value='sdsc-disk'/>"
            "</operation></step>")
    return ("<flow name='n'><children>" * levels + step
            + "</children></flow>" * levels)


def deep_request_xml():
    return ("<dataGridRequest><gridUser>alice@sdsc</gridUser>"
            "<virtualOrganization>vo</virtualOrganization>"
            + deep_flow_xml() + "</dataGridRequest>")


def status_depth(status):
    depth = 1
    while status.children:
        (status,) = status.children
        depth += 1
    return depth


def test_every_reader_parses_a_1200_level_document(dfms):
    assert request_from_xml(deep_request_xml()).body.depth() == LEVELS
    status = response_from_xml(
        "<dataGridResponse requestId='r'>"
        + "<flowStatus name='n' state='running'>" * LEVELS
        + "</flowStatus>" * LEVELS + "</dataGridResponse>").body
    assert status_depth(status) == LEVELS
    moml = moml_to_flow(
        "<entity name='n' class='datagridflow.Flow'>" * LEVELS
        + "</entity>" * LEVELS)
    assert moml.depth() == LEVELS
    trigger = trigger_from_xml(
        "<datagridTrigger name='t' owner='alice@sdsc'><on kind='insert'/>"
        + deep_flow_xml() + "</datagridTrigger>", dfms.dgms.users)
    assert trigger.action.depth() == LEVELS

    flow_lines = render_flow(trigger.action).splitlines()
    assert len(flow_lines) == LEVELS + 1
    assert flow_lines[-1].endswith("`-- [step] s: srb.put")
    status_lines = render_status(status).splitlines()
    assert len(status_lines) == LEVELS
    assert status_lines[-1] == " " * 4 * (LEVELS - 2) + "`-- [~] n running"


def test_cli_validates_and_renders_a_1200_level_document(tmp_path, capsys):
    path = tmp_path / "deep.xml"
    path.write_text(deep_request_xml())
    assert main(["validate", str(path)]) == 0
    assert f"depth {LEVELS}" in capsys.readouterr().out
    assert main(["render", str(path)]) == 0
    assert capsys.readouterr().out.count("[flow] n") == LEVELS


def test_restore_refuses_a_1200_level_checkpoint_with_admissions_answer(dfms):
    snapshot = {"format": FORMAT_VERSION, "request_id": "dgr-deep",
                "request_xml": deep_request_xml(), "journal": []}
    with pytest.raises(CheckpointError) as refused:
        restore_execution(dfms.server, snapshot)
    assert str(refused.value) == DEEP_MESSAGE
    assert dfms.server.executions() == []
