"""Tests for flow/status text rendering and MoML interchange."""

import pytest

from repro.errors import DGLParseError, DGLValidationError
from repro.dgl import (
    ExecutionState,
    FlowStatus,
    flow_builder,
    flow_to_moml,
    moml_to_flow,
    operation,
    pattern_label,
    render_flow,
    render_status,
)
from repro.dgl.model import (
    ForEach,
    Parallel,
    Repeat,
    Sequential,
    SwitchCase,
    WhileLoop,
)


def sample_flow():
    inner = (flow_builder("work")
             .parallel(max_concurrent=2)
             .step("copy", "srb.replicate", path="${f}", resource="tape")
             .step("tag", "srb.set_metadata", path="${f}",
                   attribute="done", value=1))
    return (flow_builder("sweep")
            .for_each("f", collection="/data", query="size > 10")
            .variable("count", 0)
            .subflow(inner)
            .build())


# -- pattern labels -----------------------------------------------------------

def test_pattern_labels():
    assert pattern_label(Sequential()) == "sequential"
    assert pattern_label(Parallel()) == "parallel"
    assert pattern_label(Parallel(max_concurrent=3)) == "parallel(max=3)"
    assert pattern_label(WhileLoop(condition="x < 2")) == "while(x < 2)"
    assert pattern_label(Repeat(count=5)) == "repeat(5)"
    assert pattern_label(ForEach(item_variable="f", collection="/d",
                                 query="size > 1")) == \
        "forEach f in /d where size > 1"
    assert pattern_label(SwitchCase(expression="mode",
                                    default="x")) == "switch(mode) default=x"


# -- flow rendering ------------------------------------------------------------

def test_render_flow_shows_structure():
    text = render_flow(sample_flow())
    assert "[flow] sweep (forEach f in /data where size > 10)" in text
    assert "[flow] work (parallel(max=2))" in text
    assert "[step] copy: srb.replicate" in text
    assert "vars: count=0" in text
    # Tree connectors present.
    assert "`-- " in text and "|-- " in text


def test_render_flow_shows_rules_and_assign():
    flow = (flow_builder("f")
            .before_entry(operation("dgl.log", message="hello"))
            .step("s", "srb.checksum", assign_to="digest", path="/x")
            .build())
    text = render_flow(flow)
    assert "rule beforeEntry" in text
    assert "-> digest" in text


def test_render_status_marks_states():
    status = FlowStatus(name="root", state=ExecutionState.RUNNING,
                        started_at=0.0, iterations=2, children=[
                            FlowStatus(name="ok",
                                       state=ExecutionState.COMPLETED,
                                       started_at=0.0, finished_at=1.5),
                            FlowStatus(name="bad",
                                       state=ExecutionState.FAILED,
                                       started_at=1.5, finished_at=2.0,
                                       error="boom"),
                            FlowStatus(name="todo",
                                       state=ExecutionState.PENDING),
                        ])
    text = render_status(status)
    assert "[~] root running" in text
    assert "x2" in text
    assert "[+] ok completed  [0.00 .. 1.50]" in text
    assert "[!] bad failed" in text and "error: boom" in text
    assert "[ ] todo pending" in text


# -- MoML interchange ------------------------------------------------------------

def test_moml_round_trip_structural_flow():
    flow = sample_flow()
    text = flow_to_moml(flow)
    assert "MoML 1" in text                  # doctype header
    assert 'class="datagridflow.Flow"' in text
    assert 'class="datagridflow.Step"' in text
    assert moml_to_flow(text) == flow


def test_moml_round_trip_every_pattern():
    flows = [
        flow_builder("a").sequential().step("s", "dgl.noop").build(),
        flow_builder("b").parallel(max_concurrent=4)
        .step("s", "dgl.noop").build(),
        flow_builder("c").while_loop("x < 3").step("s", "dgl.noop").build(),
        flow_builder("d").repeat(7).step("s", "dgl.noop").build(),
        flow_builder("e").for_each("i", items="[1, 2]")
        .step("s", "dgl.noop").build(),
        (flow_builder("f").switch("mode", default="only")
         .subflow(flow_builder("only").step("s", "dgl.noop")).build()),
    ]
    for flow in flows:
        assert moml_to_flow(flow_to_moml(flow)) == flow


def test_moml_preserves_parameter_types():
    flow = (flow_builder("typed")
            .step("s", "exec", duration=2.5, count=3, label="x",
                  nothing=None)
            .build())
    parsed = moml_to_flow(flow_to_moml(flow))
    params = parsed.children[0].operation.parameters
    assert params == {"duration": 2.5, "count": 3, "label": "x",
                      "nothing": None}
    assert isinstance(params["count"], int)
    assert isinstance(params["duration"], float)


def test_moml_rejects_rules():
    flow = (flow_builder("ruled")
            .before_entry(operation("dgl.noop"))
            .step("s", "dgl.noop")
            .build())
    with pytest.raises(DGLValidationError, match="no MoML representation"):
        flow_to_moml(flow)


def test_moml_rejects_step_requirements():
    flow = (flow_builder("f")
            .step("s", "exec", requirements={"resource_type": "disk"})
            .build())
    with pytest.raises(DGLValidationError):
        flow_to_moml(flow)


def test_moml_parse_errors():
    with pytest.raises(DGLParseError, match="malformed"):
        moml_to_flow("<entity")
    with pytest.raises(DGLParseError, match="expected MoML"):
        moml_to_flow("<model/>")
    with pytest.raises(DGLParseError, match="unknown MoML entity class"):
        moml_to_flow('<entity name="x" class="ptolemy.actor.Weird"/>')
    with pytest.raises(DGLParseError, match="must be a flow"):
        moml_to_flow('<entity name="s" class="datagridflow.Step">'
                     '<property name="operation" value="dgl.noop"/>'
                     '</entity>')
    with pytest.raises(DGLParseError, match="missing required attribute "
                                            "'count'"):
        moml_to_flow('<entity name="f" class="datagridflow.Flow">'
                     '<property name="flowLogic" value="repeat"/></entity>')
    for malformed in [
            '<property name="flowLogic" value="parallel"/>'
            '<property name="maxConcurrent" value="many"/>',
            '<property name="var:x" type="int" value="1.5"/>',
            '<entity name="s" class="datagridflow.Step">'
            '<property name="operation" value="dgl.noop"/>'
            '<property name="param:p" type="float" value="fast"/></entity>']:
        with pytest.raises(DGLParseError, match="malformed"):
            moml_to_flow('<entity name="f" class="datagridflow.Flow">'
                         + malformed + '</entity>')


def test_moml_types_values_as_dgl_xml_does():
    flagged = flow_builder("f").step("s", "exec", flag=True).build()
    with pytest.raises(DGLParseError, match="boolean"):
        flow_to_moml(flagged)
    with pytest.raises(DGLParseError, match="unknown value type 'bool'"):
        moml_to_flow('<entity name="f" class="datagridflow.Flow">'
                     '<property name="var:x" type="bool" value="True"/>'
                     '</entity>')


def test_moml_executes_after_round_trip(dfms):
    """An IDE-authored model executes identically after conversion."""
    flow = (flow_builder("from-ide")
            .step("a", "dgl.sleep", duration=3)
            .step("b", "dgl.sleep", duration=4)
            .build())
    recovered = moml_to_flow(flow_to_moml(flow))
    response = dfms.submit_sync(recovered)
    assert response.body.state is ExecutionState.COMPLETED
    assert dfms.env.now == 7.0
