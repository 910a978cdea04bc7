"""Tests for the DfMS server protocol: acknowledgements, status queries,
validation, sync vs async, and XML round-trip through the server."""

import pytest

from repro.errors import InvalidTransition, UnknownRequestError
from repro.dgl import (
    DataGridRequest,
    DataGridResponse,
    ExecutionState,
    FlowStatusQuery,
    RequestAcknowledgement,
    flow_builder,
    request_from_xml,
    request_to_xml,
)


def make_request(dfms, flow, asynchronous=True):
    return DataGridRequest(user=dfms.alice.qualified_name,
                           virtual_organization="vo", body=flow,
                           asynchronous=asynchronous)


def sleepy_flow(n=3, duration=10):
    builder = flow_builder("sleepy")
    for i in range(n):
        builder.step(f"s{i}", "dgl.sleep", duration=duration)
    return builder.build()


def test_async_submit_returns_acknowledgement_immediately(dfms):
    response = dfms.server.submit(make_request(dfms, sleepy_flow()))
    assert isinstance(response.body, RequestAcknowledgement)
    assert response.body.valid
    assert response.request_id.startswith("matrix-1.dgr-")
    assert dfms.env.now == 0.0          # did not block


def test_request_ids_are_unique(dfms):
    ids = {dfms.server.submit(make_request(dfms, sleepy_flow())).request_id
           for _ in range(5)}
    assert len(ids) == 5


def test_status_query_at_any_granularity(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))

    def scenario():
        yield dfms.env.timeout(15.0)
        return dfms.server.submit(DataGridRequest(
            user=dfms.alice.qualified_name, virtual_organization="vo",
            body=FlowStatusQuery(request_id=ack.request_id, path="s1")))

    response = scenario()
    result = dfms.run(response)
    assert result.body.name == "s1"
    assert result.body.state is ExecutionState.RUNNING


def test_status_query_whole_flow(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    response = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=FlowStatusQuery(request_id=ack.request_id)))
    assert response.body.state is ExecutionState.COMPLETED
    assert len(response.body.children) == 3


def test_status_query_unknown_request_is_invalid_ack(dfms):
    response = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=FlowStatusQuery(request_id="matrix-1.dgr-999999")))
    assert isinstance(response.body, RequestAcknowledgement)
    assert not response.body.valid


def test_status_query_unknown_path_is_invalid_ack(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))
    response = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=FlowStatusQuery(request_id=ack.request_id, path="ghost")))
    assert not response.body.valid


def test_status_response_is_a_snapshot_not_a_live_view(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))
    snapshot = dfms.server.status(ack.request_id)

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    assert snapshot.state is ExecutionState.PENDING     # frozen
    assert dfms.server.status(ack.request_id).state is ExecutionState.COMPLETED


def test_unknown_operation_rejected_with_invalid_ack(dfms):
    flow = flow_builder("typo").step("s", "srb.putt", path="/x").build()
    response = dfms.server.submit(make_request(dfms, flow))
    assert not response.body.valid
    assert "srb.putt" in response.body.message


def test_unknown_user_rejected(dfms):
    request = DataGridRequest(user="ghost@nowhere",
                              virtual_organization="vo",
                              body=sleepy_flow())
    response = dfms.server.submit(request)
    assert not response.body.valid
    assert "ghost@nowhere" in response.body.message


def test_sync_submit_blocks_until_completion(dfms):
    response = dfms.submit_sync(sleepy_flow(n=2, duration=7))
    assert dfms.env.now == 14.0
    assert response.body.state is ExecutionState.COMPLETED


def test_sync_submit_of_invalid_document_returns_immediately(dfms):
    flow = flow_builder("typo").step("s", "no.such.op").build()

    def scenario():
        response = yield dfms.env.process(dfms.server.submit_sync(
            make_request(dfms, flow)))
        return response

    response = dfms.run(scenario())
    assert not response.body.valid
    assert dfms.env.now == 0.0


def test_request_survives_xml_round_trip_through_server(dfms):
    request = make_request(dfms, sleepy_flow(n=2, duration=1))
    wire = request_to_xml(request)
    received = request_from_xml(wire)

    def scenario():
        response = yield dfms.env.process(dfms.server.submit_sync(received))
        return response

    response = dfms.run(scenario())
    assert response.body.state is ExecutionState.COMPLETED


def test_programmatic_lookups_raise_for_unknown_ids(dfms):
    with pytest.raises(UnknownRequestError):
        dfms.server.status("nope")
    with pytest.raises(UnknownRequestError):
        dfms.server.execution("nope")
    with pytest.raises(UnknownRequestError):
        dfms.server.request_document("nope")


def test_running_count_tracks_live_executions(dfms):
    assert dfms.server.running_count == 0
    ack1 = dfms.server.submit(make_request(dfms, sleepy_flow()))
    dfms.server.submit(make_request(dfms, sleepy_flow()))
    assert dfms.server.running_count == 2

    def scenario():
        yield dfms.server.wait(ack1.request_id)

    dfms.run(scenario())
    assert dfms.server.running_count == 0


def test_wait_on_already_finished_execution(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow(n=1, duration=1)))

    def scenario():
        yield dfms.server.wait(ack.request_id)
        yield dfms.server.wait(ack.request_id)   # second wait also fine
        return dfms.env.now

    assert dfms.run(scenario()) == 1.0


# -- one-way submission ------------------------------------------------------


def test_submit_oneway_runs_the_flow_without_a_response(dfms):
    assert dfms.server.submit_oneway(
        make_request(dfms, sleepy_flow(n=1, duration=3))) is None
    assert dfms.server.running_count == 1
    dfms.env.run()
    states = [e.state for e in dfms.server.executions()]
    assert states == [ExecutionState.COMPLETED]


def test_submit_oneway_drops_invalid_documents_silently(dfms):
    flow = flow_builder("typo").step("s", "no.such.op").build()
    assert dfms.server.submit_oneway(make_request(dfms, flow)) is None
    assert dfms.server.executions() == []


def test_submit_oneway_swallows_status_queries(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))
    before = dfms.server.running_count
    dfms.server.submit_oneway(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=FlowStatusQuery(request_id=ack.request_id)))
    assert dfms.server.running_count == before


# -- control surface on unknown / terminal ids -------------------------------


@pytest.mark.parametrize("control", ["pause", "resume", "cancel"])
def test_control_of_unknown_request_raises(dfms, control):
    with pytest.raises(UnknownRequestError):
        getattr(dfms.server, control)("matrix-1.dgr-999999")


@pytest.mark.parametrize("control", ["pause", "resume", "cancel"])
def test_control_of_terminal_execution_raises(dfms, control):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow(n=1, duration=1)))
    dfms.env.run()
    assert dfms.server.execution(ack.request_id).state.is_terminal
    with pytest.raises(InvalidTransition):
        getattr(dfms.server, control)(ack.request_id)


def test_resume_of_running_unpaused_execution_raises(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))
    with pytest.raises(InvalidTransition):
        dfms.server.resume(ack.request_id)


# -- sync submission vs mid-flow control -------------------------------------


def test_sync_submit_cancelled_mid_flow_returns_cancelled_status(dfms):
    request = make_request(dfms, sleepy_flow(n=4, duration=5),
                           asynchronous=False)

    def canceller():
        yield dfms.env.timeout(7.0)     # mid-step s1
        dfms.server.cancel(dfms.server.executions()[0].request_id)

    def scenario():
        dfms.env.process(canceller())
        response = yield dfms.env.process(dfms.server.submit_sync(request))
        return response

    response = dfms.run(scenario())
    assert response.body.state is ExecutionState.CANCELLED
    # Cancellation lands at the running step's boundary, well short of
    # the 20s the full flow would have taken.
    assert dfms.env.now == 10.0


# -- status granularity (max_depth) ------------------------------------------


def test_status_query_max_depth_zero_prunes_children(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))
    response = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=FlowStatusQuery(request_id=ack.request_id, max_depth=0)))
    assert response.body.children == ()
    full = dfms.server.status(ack.request_id)
    assert len(full.children) == 3      # the tree itself is intact


def test_status_snapshot_is_detached_at_every_depth(dfms):
    ack = dfms.server.submit(make_request(dfms, sleepy_flow()))
    shallow = dfms.server.status(ack.request_id, max_depth=1)
    assert [child.children for child in shallow.children] == [(), (), ()]
    live = dfms.server.execution(ack.request_id).status
    shallow.children[0].name = "mutated"
    assert live.children[0].name == "s0"


# -- load (the live running count P2P routing reads) -------------------------


def test_running_count_equals_a_scan_through_every_transition(dfms):
    """The live count must equal a scan of every accepted execution's
    state after each way an execution starts or stops: submit, pause,
    resume, cancel, failure, a restart in place and a checkpoint
    restore."""
    from repro.dfms import DfMSServer, checkpoint_execution, restore_execution
    from repro.storage import MB
    from repro.storage.failures import FailureInjector

    other = DfMSServer(dfms.env, dfms.dgms, name="matrix-2")

    def scanned(server):
        return sum(1 for execution in server.executions()
                   if not execution.state.is_terminal)

    def check():
        for server in (dfms.server, other):
            assert server.running_count == scanned(server)

    puts = flow_builder("ingest")
    for index in range(3):
        puts.step(f"put{index}", "srb.put", path=f"/home/alice/c{index}.dat",
                  size=MB, resource="sdsc-disk")
    doomed = (flow_builder("doomed")
              .step("wait", "dgl.sleep", duration=12)
              .step("boom", "dgl.fail", message="deliberate").build())
    dfms.sdsc_disk.failures = FailureInjector(fail_ops=[2])
    paused, cancelled, _ = (
        dfms.server.submit(make_request(dfms, sleepy_flow())).request_id
        for _ in range(3))
    dfms.server.submit(make_request(dfms, doomed))
    restarted = dfms.server.submit(make_request(dfms, puts.build()))
    check()
    assert dfms.server.running_count == 5

    def scenario():
        yield dfms.env.timeout(5.0)
        dfms.server.pause(paused)
        yield dfms.env.timeout(10.0)     # t=15: paused, failures landed
        check()
        assert dfms.server.execution(restarted.request_id).state is (
            ExecutionState.FAILED)
        dfms.server.resume(paused)
        dfms.server.cancel(cancelled)
        yield dfms.env.timeout(1.0)
        check()
        snapshot = checkpoint_execution(dfms.server, restarted.request_id)
        restore_execution(dfms.server, snapshot, replace=True)
        restore_execution(other, snapshot)
        check()
        assert other.running_count == 1
        for server in (dfms.server, other):
            for execution in server.executions():
                yield server.wait(execution.request_id)
        check()

    dfms.run(scenario())
    assert dfms.server.running_count == other.running_count == 0
