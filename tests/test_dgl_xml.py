"""Round-trip and error tests for DGL XML serialization."""

import pytest

from repro.errors import DGLParseError
from repro.dgl import (
    Action,
    DataGridRequest,
    DataGridResponse,
    DocumentMetadata,
    ExecutionState,
    Flow,
    FlowLogic,
    FlowStatus,
    FlowStatusQuery,
    ForEach,
    Operation,
    Parallel,
    Repeat,
    RequestAcknowledgement,
    RequestRejection,
    Sequential,
    Step,
    SwitchCase,
    UserDefinedRule,
    Variable,
    WhileLoop,
    from_xml,
    request_from_xml,
    request_to_xml,
    response_from_xml,
    response_to_xml,
)


def rich_flow():
    """A flow exercising every control pattern and element kind."""
    rule = UserDefinedRule(
        name="beforeEntry",
        condition="'notify' if count > 0 else 'skip'",
        actions=[
            Action("notify", Operation("dgl.log", {"message": "starting"})),
            Action("skip", Operation("dgl.noop")),
        ])
    inner_steps = Flow(
        name="work",
        logic=FlowLogic(pattern=Parallel(max_concurrent=4)),
        children=[
            Step(name="copy",
                 operation=Operation("srb.replicate",
                                     {"path": "${f}", "resource": "tape"},
                                     assign_to="replica"),
                 variables=[Variable("retries", 3)],
                 requirements={"resourceType": "archive", "min_free_gb": 10}),
            Step(name="mark",
                 operation=Operation("srb.set_metadata",
                                     {"path": "${f}", "attribute": "stage",
                                      "value": "archived"})),
        ])
    loop = Flow(
        name="per-file",
        logic=FlowLogic(pattern=ForEach(item_variable="f",
                                        collection="/ingest",
                                        query="meta:stage = 'raw'")),
        children=[inner_steps])
    chooser = Flow(
        name="choose",
        logic=FlowLogic(pattern=SwitchCase(expression="mode", default="small")),
        children=[Flow(name="small"), Flow(name="large")])
    return Flow(
        name="archive-job",
        logic=FlowLogic(pattern=Sequential(), rules=[rule]),
        variables=[Variable("count", 0), Variable("label", "nightly"),
                   Variable("ratio", 0.5), Variable("nothing", None)],
        children=[loop, chooser,
                  Flow(name="again",
                       logic=FlowLogic(pattern=Repeat(count=3))),
                  Flow(name="until",
                       logic=FlowLogic(pattern=WhileLoop(condition="count < 5")))])


def test_flow_request_round_trip():
    request = DataGridRequest(
        user="alice@sdsc", virtual_organization="scec",
        body=rich_flow(),
        metadata=DocumentMetadata(document_id="doc-1", created_at=12.5,
                                  description="integration"),
        asynchronous=True)
    assert request_from_xml(request_to_xml(request)) == request


def test_status_query_round_trip():
    request = DataGridRequest(
        user="bob@ucsd", virtual_organization="",
        body=FlowStatusQuery(request_id="dgr-000007", path="stage1/copy"))
    assert request_from_xml(request_to_xml(request)) == request


@pytest.mark.parametrize("max_depth", [None, 0, 1, 5])
def test_status_query_keeps_its_max_depth(max_depth):
    request = DataGridRequest(
        user="bob@ucsd", virtual_organization="vo",
        body=FlowStatusQuery(request_id="dgr-000007", max_depth=max_depth))
    text = request_to_xml(request)
    assert ("maxDepth" in text) == (max_depth is not None)
    assert request_from_xml(text) == request


@pytest.mark.parametrize("body", [
    RequestRejection(request_id="gw.shed-000001", reason="throttled",
                     message="over its submit rate", retry_after_s=2.5),
    RequestRejection(request_id="gw.shed-000002", reason="queue-full"),
], ids=["every-attribute", "required-only"])
def test_rejection_response_round_trip(body):
    response = DataGridResponse(request_id=body.request_id, body=body)
    text = response_to_xml(response)
    assert "<requestRejection" in text
    assert response_from_xml(text) == response
    assert from_xml(text) == response


def test_response_needs_exactly_one_body():
    with pytest.raises(DGLParseError, match="exactly one of"):
        response_from_xml(response_text(
            "<requestRejection requestId='r' reason='queue-full'/>"
            "<flowStatus name='f' state='running'/>"))
    with pytest.raises(DGLParseError, match="exactly one of"):
        response_from_xml(response_text(""))


def test_acknowledgement_response_round_trip():
    response = DataGridResponse(
        request_id="dgr-000001",
        body=RequestAcknowledgement(request_id="dgr-000001",
                                    state=ExecutionState.PENDING,
                                    valid=True, message="accepted"))
    assert response_from_xml(response_to_xml(response)) == response


def test_status_response_round_trip():
    status = FlowStatus(
        name="root", state=ExecutionState.RUNNING, started_at=1.0,
        iterations=2,
        children=[FlowStatus(name="s1", state=ExecutionState.COMPLETED,
                             started_at=1.0, finished_at=2.0),
                  FlowStatus(name="s2", state=ExecutionState.FAILED,
                             error="disk offline")])
    response = DataGridResponse(request_id="dgr-9", body=status)
    assert response_from_xml(response_to_xml(response)) == response


def test_value_types_survive_round_trip():
    flow = Flow(name="f", variables=[
        Variable("i", 3), Variable("x", 2.5),
        Variable("s", "3"), Variable("n", None)])
    request = DataGridRequest(user="u@d", virtual_organization="", body=flow)
    parsed = request_from_xml(request_to_xml(request)).body
    values = {v.name: v.value for v in parsed.variables}
    assert values == {"i": 3, "x": 2.5, "s": "3", "n": None}
    assert isinstance(values["i"], int)
    assert isinstance(values["x"], float)
    assert isinstance(values["s"], str)


def test_from_xml_dispatches_on_root():
    request = DataGridRequest(user="u@d", virtual_organization="",
                              body=Flow(name="f"))
    response = DataGridResponse(
        request_id="r", body=RequestAcknowledgement(
            request_id="r", state=ExecutionState.PENDING))
    assert isinstance(from_xml(request_to_xml(request)), DataGridRequest)
    assert isinstance(from_xml(response_to_xml(response)), DataGridResponse)
    with pytest.raises(DGLParseError):
        from_xml("<unrelated/>")


def test_malformed_xml_reports_parse_error():
    with pytest.raises(DGLParseError, match="malformed"):
        request_from_xml("<dataGridRequest><unclosed>")


def test_request_requires_user_and_single_body():
    with pytest.raises(DGLParseError, match="gridUser"):
        request_from_xml("<dataGridRequest><flow name='f'/></dataGridRequest>")
    with pytest.raises(DGLParseError, match="exactly one"):
        request_from_xml(
            "<dataGridRequest><gridUser>u</gridUser></dataGridRequest>")
    with pytest.raises(DGLParseError, match="exactly one"):
        request_from_xml(
            "<dataGridRequest><gridUser>u</gridUser>"
            "<flow name='f'/><flowStatusQuery requestId='r'/>"
            "</dataGridRequest>")


def test_step_requires_operation():
    text = ("<dataGridRequest><gridUser>u</gridUser>"
            "<flow name='f'><children><step name='s'/></children></flow>"
            "</dataGridRequest>")
    with pytest.raises(DGLParseError, match="operation"):
        request_from_xml(text)


def test_two_patterns_rejected():
    text = ("<dataGridRequest><gridUser>u</gridUser>"
            "<flow name='f'><flowLogic><sequential/><parallel/></flowLogic>"
            "</flow></dataGridRequest>")
    with pytest.raises(DGLParseError, match="more than one"):
        request_from_xml(text)


def test_missing_flowlogic_defaults_to_sequential():
    text = ("<dataGridRequest><gridUser>u</gridUser>"
            "<flow name='f'/></dataGridRequest>")
    parsed = request_from_xml(text)
    assert isinstance(parsed.body.logic.pattern, Sequential)


def test_xml_is_indented_and_human_readable():
    request = DataGridRequest(user="u@d", virtual_organization="vo",
                              body=rich_flow())
    text = request_to_xml(request)
    assert "\n  " in text
    assert "<flowLogic>" in text
    assert "userDefinedRule" in text


def request_text(flow_body="", metadata=""):
    return ("<dataGridRequest><gridUser>u</gridUser>" + metadata
            + "<flow name='f'>" + flow_body + "</flow></dataGridRequest>")


def response_text(body):
    return "<dataGridResponse requestId='r'>" + body + "</dataGridResponse>"


@pytest.mark.parametrize("reader, text, attribute, value", [
    pytest.param(request_from_xml, request_text(
        metadata="<documentMetadata createdAt='soon'/>"),
        "createdAt", "soon", id="createdAt"),
    pytest.param(request_from_xml, request_text(
        "<flowLogic><parallel maxConcurrent='many'/></flowLogic>"),
        "maxConcurrent", "many", id="maxConcurrent"),
    pytest.param(request_from_xml, request_text(
        "<variables><variable name='x' type='int' value='1.5'/></variables>"),
        "value", "1.5", id="int-value"),
    pytest.param(request_from_xml, request_text(
        "<children><step name='s'><operation name='dgl.noop'>"
        "<parameter name='p' type='float' value='fast'/>"
        "</operation></step></children>"),
        "value", "fast", id="float-value"),
    pytest.param(response_from_xml, response_text(
        "<requestAcknowledgement requestId='r' state='asleep'/>"),
        "state", "asleep", id="acknowledgement-state"),
    pytest.param(response_from_xml, response_text(
        "<flowStatus name='f' state='asleep'/>"),
        "state", "asleep", id="status-state"),
    pytest.param(response_from_xml, response_text(
        "<flowStatus name='f' state='running' startedAt='noon'/>"),
        "startedAt", "noon", id="startedAt"),
    pytest.param(response_from_xml, response_text(
        "<flowStatus name='f' state='running'>"
        "<flowStatus name='g' state='failed' finishedAt='later'/>"
        "</flowStatus>"),
        "finishedAt", "later", id="finishedAt"),
    pytest.param(response_from_xml, response_text(
        "<flowStatus name='f' state='running' iterations='2.5'/>"),
        "iterations", "2.5", id="iterations"),
    pytest.param(request_from_xml,
                 "<dataGridRequest asynchronous='True'><gridUser>u</gridUser>"
                 "<flow name='f'/></dataGridRequest>",
                 "asynchronous", "True", id="asynchronous"),
    pytest.param(response_from_xml, response_text(
        "<requestAcknowledgement requestId='r' state='pending' valid='yes'/>"),
        "valid", "yes", id="valid"),
    pytest.param(request_from_xml,
                 "<dataGridRequest><gridUser>u</gridUser>"
                 "<flowStatusQuery requestId='r' maxDepth='-1'/>"
                 "</dataGridRequest>",
                 "maxDepth", "-1", id="maxDepth-negative"),
    pytest.param(request_from_xml,
                 "<dataGridRequest><gridUser>u</gridUser>"
                 "<flowStatusQuery requestId='r' maxDepth='deep'/>"
                 "</dataGridRequest>",
                 "maxDepth", "deep", id="maxDepth"),
    pytest.param(response_from_xml, response_text(
        "<requestRejection requestId='r' reason='queue-full' "
        "retryAfter='soon'/>"),
        "retryAfter", "soon", id="retryAfter"),
])
def test_malformed_attribute_is_a_parse_error(reader, text, attribute, value):
    with pytest.raises(DGLParseError,
                       match=f"malformed '{attribute}' attribute: '{value}'"):
        reader(text)


def test_missing_required_attribute_names_element_and_attribute():
    with pytest.raises(DGLParseError, match="<while> is missing required "
                                            "attribute 'condition'"):
        request_from_xml(request_text("<flowLogic><while/></flowLogic>"))
