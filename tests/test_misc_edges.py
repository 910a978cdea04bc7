"""Edge-case and error-path tests across modules."""

import pytest

from repro.errors import (
    ExecutionError,
    GridError,
    NetworkError,
    SimStopped,
)
from repro.dgl import ExecutionState, flow_builder
from repro.ids import IdFactory, next_id
from repro.storage import MB


# -- ids ----------------------------------------------------------------

def test_id_factory_counters_are_per_prefix():
    ids = IdFactory(width=3)
    assert ids.next("a") == "a-001"
    assert ids.next("b") == "b-001"
    assert ids.next("a") == "a-002"
    ids.reset()
    assert ids.next("a") == "a-001"


def test_default_factory_is_shared():
    first = next_id("edgecase-prefix")
    second = next_id("edgecase-prefix")
    assert first != second


# -- engine edge cases ------------------------------------------------------------

def test_foreach_items_must_be_a_list(dfms):
    for items, kind in (("42", "int"), ("'abc'", "str")):
        flow = (flow_builder("bad")
                .for_each("x", items=items)
                .step("s", "dgl.noop")
                .build())
        response = dfms.submit_sync(flow)
        assert response.body.state is ExecutionState.FAILED
        assert response.body.error == (
            f"forEach items expression must yield a list, got {kind}")


def test_repeat_negative_count_fails(dfms):
    # An expression count and a literal one are checked alike, before
    # any pass runs.
    for builder in (flow_builder("bad").variable("n", -2).repeat("${n}"),
                    flow_builder("bad").repeat(-1)):
        response = dfms.submit_sync(builder.step("s", "dgl.noop").build())
        assert response.body.state is ExecutionState.FAILED
        assert "negative" in response.body.error
        assert response.body.iterations == 0
        assert response.body.children[0].state is ExecutionState.PENDING


def test_switch_non_string_value_with_default(dfms):
    flow = (flow_builder("choose")
            .variable("mode", 42)
            .switch("mode", default="fallback")
            .subflow(flow_builder("fallback").step("s", "dgl.sleep",
                                                   duration=1))
            .build())
    response = dfms.submit_sync(flow)
    assert response.body.state is ExecutionState.COMPLETED
    assert dfms.env.now == 1.0


def test_empty_flow_completes_instantly(dfms):
    response = dfms.submit_sync(flow_builder("empty").build())
    assert response.body.state is ExecutionState.COMPLETED
    assert dfms.env.now == 0.0


def test_while_loop_never_true_runs_zero_iterations(dfms):
    flow = (flow_builder("never")
            .while_loop("false")
            .step("s", "dgl.fail", message="unreachable")
            .build())
    response = dfms.submit_sync(flow)
    assert response.body.state is ExecutionState.COMPLETED
    assert response.body.iterations == 0


# -- operation parameter validation -----------------------------------------------

def test_dgl_set_requires_variable_param(dfms):
    # Static admission check: the document is refused before running.
    flow = flow_builder("f").step("s", "dgl.set", value=1).build()
    response = dfms.submit_sync(flow)
    assert not response.body.valid
    assert "variable" in response.body.message


def test_dgl_sleep_rejects_negative_duration(dfms):
    flow = flow_builder("f").step("s", "dgl.sleep", duration=-1).build()
    response = dfms.submit_sync(flow)
    assert response.body.state is ExecutionState.FAILED


def test_retry_marker_outside_on_error_fails(dfms):
    flow = flow_builder("f").step("s", "dgl.retry").build()
    response = dfms.submit_sync(flow)
    assert response.body.state is ExecutionState.FAILED
    assert "onError" in response.body.error


def test_exec_output_requires_resource(dfms):
    flow = (flow_builder("f")
            .step("s", "exec", duration=1,
                  output_path="/home/alice/out.dat", output_size=1.0)
            .build())
    response = dfms.submit_sync(flow)
    assert response.body.state is ExecutionState.FAILED
    assert "output_resource" in response.body.error


def test_srb_put_requires_parameters(dfms):
    # Static admission check: the document is refused before running.
    flow = flow_builder("f").step("s", "srb.put", path="/x").build()
    response = dfms.submit_sync(flow)
    assert not response.body.valid
    assert "size" in response.body.message
    assert "resource" in response.body.message


def test_srb_query_with_limit_and_non_recursive(dfms):
    dfms.dgms.create_collection(dfms.alice, "/home/alice/sub")
    for index in range(4):
        dfms.put_file(f"/home/alice/q{index}.dat", size=MB)
    dfms.put_file("/home/alice/sub/nested.dat", size=MB)
    flow = (flow_builder("f")
            .step("q1", "srb.query", assign_to="limited",
                  collection="/home/alice", query="name like '*.dat'",
                  limit=2)
            .step("q2", "srb.query", assign_to="flat",
                  collection="/home/alice", recursive=False)
            .build())
    dfms.submit_sync(flow)
    execution = dfms.server.executions()[0]
    effects = dict(entry for key in ("q1", "q2")
                   for entry in execution.journal[key].effects)
    assert len(effects["limited"]) == 2
    assert "/home/alice/sub/nested.dat" not in effects["flat"]


def test_unknown_checksum_algorithm(grid):
    grid.put_file("/home/alice/f.dat", size=MB)

    def go():
        yield grid.dgms.checksum(grid.alice, "/home/alice/f.dat",
                                 algorithm="sha512")

    with pytest.raises(GridError, match="unsupported"):
        grid.run(go())


# -- sim / network edges ------------------------------------------------------------

def test_transfer_rejects_negative_size(grid):
    with pytest.raises(NetworkError):
        grid.dgms.transfers.transfer("sdsc", "ucsd", -1.0)


def test_topology_transfer_time_rejects_negative(grid):
    with pytest.raises(NetworkError):
        grid.dgms.topology.transfer_time("sdsc", "ucsd", -5.0)


def test_run_process_on_drained_environment(grid):
    def immediate():
        return "done"
        yield   # pragma: no cover

    assert grid.run(immediate()) == "done"


def test_env_run_until_with_no_events_advances_clock(grid):
    grid.env.run(until=123.0)
    assert grid.env.now == 123.0
    with pytest.raises(SimStopped):
        grid.env.step()


# -- structure introspection depth ------------------------------------------------

def test_structure_of_depth_limits():
    from repro.dgl import Flow, structure_of
    shallow = structure_of(Flow, max_depth=1)
    deep = structure_of(Flow, max_depth=4)
    assert len(deep.splitlines()) > len(shallow.splitlines())


# -- server rejects over-deep documents ---------------------------------------------

def test_server_rejects_over_deep_nesting(dfms):
    from repro.dgl import DataGridRequest
    from repro.workloads import sleep_chain_flow
    flow = sleep_chain_flow("toodeep", depth=160, duration=0.0)
    response = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))
    assert not response.body.valid
    assert "nests" in response.body.message
