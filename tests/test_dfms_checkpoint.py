"""Tests for checkpoint/restart of long-run executions."""

from dataclasses import replace

import pytest

from repro.errors import CheckpointError
from repro.dfms import (
    DfMSServer,
    checkpoint_execution,
    checkpoint_from_json,
    checkpoint_to_json,
    restore_execution,
)
from repro.dgl import (
    DataGridRequest,
    ExecutionState,
    flow_builder,
    request_from_xml,
    request_to_xml,
)
from repro.storage import MB


def submit_async(dfms, flow):
    return dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))


def three_puts():
    builder = flow_builder("ingest")
    for i in range(3):
        builder.step(f"put{i}", "srb.put", path=f"/home/alice/c{i}.dat",
                     size=MB, resource="sdsc-disk")
    return builder.build()


def test_checkpoint_captures_journal(dfms):
    ack = submit_async(dfms, three_puts())

    def scenario():
        # Pause while put0 is still in flight: it completes (~0.03 s) and is
        # journalled; the pause bites at the boundary before put1.
        yield dfms.env.timeout(0.01)
        dfms.server.pause(ack.request_id)
        yield dfms.env.timeout(1.0)
        return checkpoint_execution(dfms.server, ack.request_id)

    snapshot = dfms.run(scenario())
    keys = {entry["key"] for entry in snapshot["journal"]}
    assert "put0" in keys
    assert "put2" not in keys
    assert "<dataGridRequest" in snapshot["request_xml"]


def test_checkpoint_json_round_trip(dfms):
    ack = submit_async(dfms, three_puts())

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    assert checkpoint_from_json(checkpoint_to_json(snapshot)) == snapshot


def test_restore_skips_completed_steps_and_finishes_rest(dfms):
    ack = submit_async(dfms, three_puts())

    def run_until_paused():
        yield dfms.env.timeout(0.01)
        dfms.server.pause(ack.request_id)
        yield dfms.env.timeout(0.5)
        snapshot = checkpoint_execution(dfms.server, ack.request_id)
        dfms.server.cancel(ack.request_id)       # the "crash"
        yield dfms.server.wait(ack.request_id)
        return snapshot

    snapshot = dfms.run(run_until_paused())
    done_before = {entry["key"] for entry in snapshot["journal"]}
    assert done_before == {"put0"}

    # New server instance over the SAME datagrid (the grid state survived).
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-restarted")
    execution = restore_execution(new_server, snapshot)

    def wait_done():
        yield new_server.wait(execution.request_id)

    dfms.run(wait_done())
    assert execution.state is ExecutionState.COMPLETED
    # All three objects exist; put0 was NOT re-ingested (no duplicate error).
    for i in range(3):
        assert dfms.dgms.namespace.exists(f"/home/alice/c{i}.dat")
    # Exactly one replica each — a rerun of put0 would have raised.
    obj0 = dfms.dgms.namespace.resolve_object("/home/alice/c0.dat")
    assert len(obj0.replicas) == 1


def test_restore_keeps_request_id(dfms):
    ack = submit_async(dfms, three_puts())

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-2")
    execution = restore_execution(new_server, snapshot)
    assert execution.request_id == ack.request_id
    # Status queries against the old identifier work on the new server.
    def wait_done():
        yield new_server.wait(execution.request_id)
    dfms.run(wait_done())
    assert new_server.status(ack.request_id).state is ExecutionState.COMPLETED


def test_restore_replays_variable_effects(dfms):
    flow = (flow_builder("calc")
            .variable("x", 0)
            .variable("y", 0)
            .step("set", "dgl.set", variable="x", value=41)
            .step("use", "dgl.set", variable="y", value="${x + 1}")
            .build())
    # Run to completion, checkpoint, restore: both steps replay from journal.
    ack = submit_async(dfms, flow)

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-3")
    execution = restore_execution(new_server, snapshot)

    def wait_done():
        yield new_server.wait(execution.request_id)

    dfms.run(wait_done())
    assert execution.state is ExecutionState.COMPLETED
    # Both steps were replayed from the journal; the "use" entry carries the
    # effect computed from the replayed value of x (41 + 1).
    assert ("y", 42) in [tuple(e) for e in execution.journal["use"].effects]


def test_restore_rejects_bad_snapshots(dfms):
    with pytest.raises(CheckpointError):
        restore_execution(dfms.server, {"format": 99})
    with pytest.raises(CheckpointError):
        restore_execution(dfms.server, {"format": 1})
    with pytest.raises(CheckpointError):
        checkpoint_from_json("{not json")
    good = {"format": 1, "request_id": "matrix-1.dgr-000001", "journal": [],
            "request_xml": request_to_xml(DataGridRequest(
                user=dfms.alice.qualified_name, virtual_organization="vo",
                body=three_puts()))}
    for bad in ({**good, "journal": [{"key": "put0", "finished_at": 0.0}]},
                {**good, "journal": 5},
                {**good, "request_xml": "<dataGridRequest"}):
        with pytest.raises(CheckpointError):
            restore_execution(dfms.server, bad)
    assert dfms.server.executions() == []


def edited_snapshot(dfms, edit):
    """A checkpoint of a finished ``three_puts`` run whose request
    document ``edit`` has rewritten — snapshots are outside input."""
    ack = submit_async(dfms, three_puts())

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    request = request_from_xml(snapshot["request_xml"])
    edit(request)
    snapshot["request_xml"] = request_to_xml(request)
    return snapshot


def _misspell_operation(request):
    flow = request.body
    put = flow.children[1]
    request.body = replace(flow, children=(
        flow.children[0],
        replace(put, operation=replace(put.operation, name="srb.putt")),
        *flow.children[2:]))


def _drop_required_parameters(request):
    flow = request.body
    put = flow.children[1]
    parameters = {name: value
                  for name, value in put.operation.parameters.items()
                  if name not in ("size", "resource")}
    request.body = replace(flow, children=(
        flow.children[0],
        replace(put, operation=replace(put.operation,
                                       parameters=parameters)),
        *flow.children[2:]))


def _unknown_user(request):
    request.user = "mallory@nowhere"


@pytest.mark.parametrize("edit, message", [
    (_misspell_operation, "unknown operations: srb.putt"),
    (_drop_required_parameters,
     "step 'ingest/put1': srb.put is missing required parameter(s) "
     "size, resource"),
    (_unknown_user, "unknown grid user 'mallory@nowhere'"),
], ids=["unknown-operation", "missing-parameter", "unknown-user"])
def test_restore_is_admitted_like_a_submission(dfms, edit, message):
    # A restart passes the same admission check as a fresh submission; a
    # refused snapshot raises and leaves nothing registered or running.
    snapshot = edited_snapshot(dfms, edit)
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-restarted")
    with pytest.raises(CheckpointError) as refused:
        restore_execution(new_server, snapshot)
    assert str(refused.value) == message
    assert new_server.executions() == []
    assert new_server.running_count == 0


def test_restored_execution_cannot_collide_with_live_one(dfms):
    from repro.errors import DfMSError
    ack = submit_async(dfms, three_puts())

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    with pytest.raises(DfMSError, match="already registered"):
        restore_execution(dfms.server, snapshot)


def test_json_round_trip_restores_midflow_snapshot_to_completion(dfms):
    # The full persistence path: pause mid-flow, serialize the snapshot to
    # its JSON wire form, "crash", and restore a NEW server from the
    # parsed text — the execution picks up where the journal left off.
    ack = submit_async(dfms, three_puts())

    def run_until_paused():
        yield dfms.env.timeout(0.01)
        dfms.server.pause(ack.request_id)
        yield dfms.env.timeout(0.5)
        text = checkpoint_to_json(
            checkpoint_execution(dfms.server, ack.request_id))
        dfms.server.cancel(ack.request_id)
        yield dfms.server.wait(ack.request_id)
        return text

    text = dfms.run(run_until_paused())
    assert isinstance(text, str)
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-json")
    execution = restore_execution(new_server, checkpoint_from_json(text))

    def wait_done():
        yield new_server.wait(execution.request_id)

    dfms.run(wait_done())
    assert execution.state is ExecutionState.COMPLETED
    for i in range(3):
        obj = dfms.dgms.namespace.resolve_object(f"/home/alice/c{i}.dat")
        assert len(obj.replicas) == 1


def test_restore_replace_overwrites_terminal_execution_in_place(dfms):
    # The supervisor's restart path: a FAILED execution may be replaced on
    # the SAME server, and the old request id resolves to the new attempt.
    from repro.storage.failures import FailureInjector
    dfms.sdsc_disk.failures = FailureInjector(fail_ops=[2])
    ack = submit_async(dfms, three_puts())

    def run_to_failure():
        yield dfms.server.wait(ack.request_id)

    dfms.run(run_to_failure())
    assert dfms.server.status(ack.request_id).state is ExecutionState.FAILED
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    execution = restore_execution(dfms.server, snapshot, replace=True)

    def wait_done():
        yield dfms.server.wait(execution.request_id)

    dfms.run(wait_done())
    assert dfms.server.status(ack.request_id).state is (
        ExecutionState.COMPLETED)


def test_restore_replace_refuses_live_execution(dfms):
    from repro.errors import DfMSError
    ack = submit_async(dfms, three_puts())
    # Not yet terminal (the engine has not even started): even with
    # replace=True two engines must never race on one request id.
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    with pytest.raises(DfMSError, match="already registered"):
        restore_execution(dfms.server, snapshot, replace=True)

    def drain():
        yield dfms.server.wait(ack.request_id)

    dfms.run(drain())
