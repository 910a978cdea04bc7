"""Tests for the admission-controlled gateway: token buckets, the
bounded queue, weighted-fair dequeue, shed responses, and the
queued-status answer path."""

import pytest

from repro.dfms.gateway import DfMSGateway, TokenBucket, VOPolicy
from repro.dgl import (
    DataGridRequest,
    ExecutionState,
    FlowStatus,
    FlowStatusQuery,
    RequestAcknowledgement,
    RequestRejection,
    flow_builder,
)


def make_request(dfms, flow, vo="vo-a", asynchronous=True):
    return DataGridRequest(user=dfms.alice.qualified_name,
                           virtual_organization=vo, body=flow,
                           asynchronous=asynchronous)


def sleepy_flow(n=1, duration=10):
    builder = flow_builder("sleepy")
    for i in range(n):
        builder.step(f"s{i}", "dgl.sleep", duration=duration)
    return builder.build()


def make_gateway(dfms, **kw):
    return DfMSGateway(dfms.env, dfms.server, **kw)


# -- token bucket ------------------------------------------------------------


def test_token_bucket_spends_down_and_refills_in_sim_time(dfms):
    bucket = TokenBucket(dfms.env, rate=2.0, burst=4.0)
    assert all(bucket.take(1.0) for _ in range(4))
    assert not bucket.take(1.0)
    assert bucket.eta(1.0) == pytest.approx(0.5)

    def wait():
        yield dfms.env.timeout(1.0)

    dfms.run(wait())
    assert bucket.take(1.0)
    assert bucket.take(1.0)
    assert not bucket.take(1.0)


def test_token_bucket_never_exceeds_burst(dfms):
    bucket = TokenBucket(dfms.env, rate=100.0, burst=3.0)

    def wait():
        yield dfms.env.timeout(10.0)

    dfms.run(wait())
    assert sum(bucket.take(1.0) for _ in range(10)) == 3


def test_vo_policy_rejects_sub_unit_weights(dfms):
    with pytest.raises(ValueError):
        VOPolicy(weight=0.5)


# -- admission and acknowledgement -------------------------------------------


def test_admitted_flow_is_acked_pending_with_a_real_request_id(dfms):
    gateway = make_gateway(dfms)
    response = gateway.submit(make_request(dfms, sleepy_flow()))
    assert isinstance(response.body, RequestAcknowledgement)
    assert response.body.state is ExecutionState.PENDING
    assert response.request_id.startswith("matrix-1.dgr-")
    dfms.env.run()
    assert dfms.server.execution(response.request_id).state \
        is ExecutionState.COMPLETED
    assert gateway.stats()["succeeded"] == 1


def test_queue_full_submissions_are_shed(dfms):
    gateway = make_gateway(dfms, workers=1, queue_limit=2)
    ok = [gateway.submit(make_request(dfms, sleepy_flow()))
          for _ in range(2)]
    assert all(not r.is_rejection for r in ok)
    shed = gateway.submit(make_request(dfms, sleepy_flow()))
    assert isinstance(shed.body, RequestRejection)
    assert shed.body.reason == "queue-full"
    assert gateway.sheds == {"queue-full": 1}
    assert gateway.peak_depth == 2


def test_over_rate_submissions_are_throttled_with_retry_hint(dfms):
    gateway = make_gateway(
        dfms, default_policy=VOPolicy(rate=1.0, burst=2.0))
    for _ in range(2):
        assert not gateway.submit(
            make_request(dfms, sleepy_flow())).is_rejection
    shed = gateway.submit(make_request(dfms, sleepy_flow()))
    assert shed.body.reason == "throttled"
    assert shed.body.retry_after_s == pytest.approx(1.0)


def test_each_vo_has_its_own_bucket(dfms):
    gateway = make_gateway(
        dfms, default_policy=VOPolicy(rate=1.0, burst=1.0))
    assert not gateway.submit(
        make_request(dfms, sleepy_flow(), vo="vo-a")).is_rejection
    assert gateway.submit(
        make_request(dfms, sleepy_flow(), vo="vo-a")).is_rejection
    # vo-b's bucket is untouched by vo-a draining its own.
    assert not gateway.submit(
        make_request(dfms, sleepy_flow(), vo="vo-b")).is_rejection


# -- status queries ----------------------------------------------------------


def test_status_of_queued_request_is_answered_by_the_gateway(dfms):
    gateway = make_gateway(dfms, workers=1)
    gateway.submit(make_request(dfms, sleepy_flow()))
    second = gateway.submit(make_request(dfms, sleepy_flow()))
    response = gateway.submit(make_request(
        dfms, FlowStatusQuery(request_id=second.request_id)))
    assert response.body.state is ExecutionState.PENDING
    assert "queued at" in response.body.message
    # The server has never heard of the queued id.
    assert second.request_id not in {
        e.request_id for e in dfms.server.executions()}


def test_status_of_started_request_is_forwarded_to_the_server(dfms):
    gateway = make_gateway(dfms)
    ack = gateway.submit(make_request(dfms, sleepy_flow(n=2, duration=10)))
    dfms.env.run(until=5.0)
    response = gateway.submit(make_request(
        dfms, FlowStatusQuery(request_id=ack.request_id)))
    assert response.body.state is ExecutionState.RUNNING
    assert len(response.body.children) == 2


def test_status_queries_are_charged_fractionally(dfms):
    gateway = make_gateway(
        dfms, default_policy=VOPolicy(rate=1.0, burst=1.0),
        status_query_cost=0.25)
    ack = gateway.submit(make_request(dfms, sleepy_flow()))
    poll = lambda: gateway.submit(make_request(
        dfms, FlowStatusQuery(request_id=ack.request_id)))
    # The submit spent the whole burst; no token left for even a poll...
    assert poll().is_rejection
    dfms.env.run(until=1.0)
    # ...but one refilled token now covers four polls.
    outcomes = [poll().is_rejection for _ in range(5)]
    assert outcomes == [False, False, False, False, True]


def counting_seam(gateway):
    """Route ``_query_server`` through a list that records each call."""
    calls = []
    original = gateway._query_server

    def counted(request):
        calls.append(request)
        return original(request)

    gateway._query_server = counted
    return calls


def test_same_instant_duplicate_polls_are_coalesced(dfms):
    gateway = make_gateway(dfms)
    ack = gateway.submit(make_request(dfms, sleepy_flow(n=2, duration=10)))
    dfms.env.run(until=5.0)
    calls = counting_seam(gateway)
    poll = lambda: gateway.submit(make_request(
        dfms, FlowStatusQuery(request_id=ack.request_id)))
    responses = [poll() for _ in range(3)]
    # Three same-instant polls of one (request, granularity): one server
    # call, the duplicates answered from the memo with the same response.
    assert len(calls) == 1
    assert gateway.coalesced == 2
    assert gateway.stats()["coalesced"] == 2
    assert responses[1] is responses[0] and responses[2] is responses[0]
    assert responses[0].body.state is ExecutionState.RUNNING


def test_polls_at_different_granularity_are_not_coalesced(dfms):
    gateway = make_gateway(dfms)
    ack = gateway.submit(make_request(dfms, sleepy_flow(n=2, duration=10)))
    dfms.env.run(until=5.0)
    calls = counting_seam(gateway)
    for query in [FlowStatusQuery(request_id=ack.request_id),
                  FlowStatusQuery(request_id=ack.request_id, max_depth=0),
                  FlowStatusQuery(request_id=ack.request_id, path="sleepy")]:
        gateway.submit(make_request(dfms, query))
    # Same request id, three different (path, max_depth) granularities.
    assert len(calls) == 3
    assert gateway.coalesced == 0


def test_status_memo_is_dropped_when_the_clock_moves(dfms):
    gateway = make_gateway(dfms)
    ack = gateway.submit(make_request(dfms, sleepy_flow(n=2, duration=10)))
    dfms.env.run(until=5.0)
    calls = counting_seam(gateway)
    poll = lambda: gateway.submit(make_request(
        dfms, FlowStatusQuery(request_id=ack.request_id)))
    running = poll()
    assert running.body.state is ExecutionState.RUNNING
    dfms.env.run()   # the flow finishes; sim time moved on
    done = poll()
    # The memo was only good for the instant it was filled at.
    assert len(calls) == 2
    assert gateway.coalesced == 0
    assert done.body.state is ExecutionState.COMPLETED


def test_coalesced_polls_are_still_charged(dfms):
    gateway = make_gateway(
        dfms, default_policy=VOPolicy(rate=1.0, burst=2.0),
        status_query_cost=1.0)
    ack = gateway.submit(make_request(dfms, sleepy_flow(n=1, duration=10)))
    dfms.env.run(until=5.0)
    calls = counting_seam(gateway)
    poll = lambda: gateway.submit(make_request(
        dfms, FlowStatusQuery(request_id=ack.request_id)))
    # Burst 2, cost 1: two polls pass (the second coalesced but still
    # paid for), the third is throttled before the memo is consulted.
    assert not poll().is_rejection
    assert not poll().is_rejection
    assert poll().is_rejection
    assert len(calls) == 1
    assert gateway.coalesced == 1


# -- weighted-fair dequeue ---------------------------------------------------


def test_deficit_round_robin_serves_vos_by_weight(dfms):
    gateway = make_gateway(
        dfms, workers=1, queue_limit=16,
        vo_policies={"vo-b": VOPolicy(weight=2.0)})
    for _ in range(3):
        gateway.submit(make_request(dfms, sleepy_flow(), vo="vo-a"))
    for _ in range(6):
        gateway.submit(make_request(dfms, sleepy_flow(), vo="vo-b"))
    order = []
    while True:
        request_id = gateway._dequeue()
        if request_id is None:
            break
        order.append(gateway._entries[request_id].vo)
    # Weight 2 drains twice as fast under contention.
    assert order[:6].count("vo-b") == 4
    assert order[:6].count("vo-a") == 2
    assert len(order) == 9


def test_idle_lanes_accumulate_no_credit(dfms):
    gateway = make_gateway(dfms, workers=1, queue_limit=16,
                           vo_policies={"vo-b": VOPolicy(weight=3.0)})
    gateway.submit(make_request(dfms, sleepy_flow(), vo="vo-b"))
    assert gateway._dequeue() is not None
    assert gateway._dequeue() is None
    # vo-b emptied out; its deficit state is gone, not banked.
    assert "vo-b" not in gateway._deficit
    assert "vo-b" not in gateway._lanes


# -- workers and completion --------------------------------------------------


def test_workers_bound_server_concurrency(dfms):
    gateway = make_gateway(dfms, workers=2, queue_limit=8)
    for _ in range(4):
        gateway.submit(make_request(dfms, sleepy_flow(n=1, duration=10)))
    assert gateway.peak_depth == 4
    dfms.env.run(until=5.0)
    assert dfms.server.running_count == 2       # not 4
    assert gateway.queue_depth == 2
    dfms.env.run()
    assert dfms.env.now == 20.0                 # two waves of two
    assert gateway.completed == 4
    assert sorted(gateway.queue_waits) == [0.0, 0.0, 10.0, 10.0]
    assert sorted(gateway.sojourns) == [10.0, 10.0, 20.0, 20.0]


def test_submit_sync_waits_out_queue_and_execution(dfms):
    gateway = make_gateway(dfms, workers=1)
    gateway.submit(make_request(dfms, sleepy_flow(n=1, duration=4)))
    request = make_request(dfms, sleepy_flow(n=1, duration=4),
                           asynchronous=False)
    response = dfms.run(gateway.submit_sync(request))
    assert response.body.state is ExecutionState.COMPLETED
    assert dfms.env.now == 8.0                  # 4s queued behind the first


def test_submit_sync_returns_sheds_without_waiting(dfms):
    gateway = make_gateway(
        dfms, default_policy=VOPolicy(rate=1.0, burst=1.0))
    gateway.submit(make_request(dfms, sleepy_flow()))
    response = dfms.run(gateway.submit_sync(
        make_request(dfms, sleepy_flow(), asynchronous=False)))
    assert response.is_rejection
    assert dfms.env.now == 0.0


def test_invalid_document_surfaces_at_dequeue_time(dfms):
    gateway = make_gateway(dfms)
    flow = flow_builder("typo").step("s", "no.such.op").build()
    response = dfms.run(gateway.submit_sync(
        make_request(dfms, flow, asynchronous=False)))
    assert isinstance(response.body, RequestAcknowledgement)
    assert not response.body.valid
    assert gateway.completed == 1
    assert gateway.succeeded == 0


def test_only_a_sync_submission_copies_the_final_status(dfms, monkeypatch):
    copied = []
    snapshot = FlowStatus.snapshot

    def counting_snapshot(status, max_depth=None):
        copied.append(status.name)
        return snapshot(status, max_depth)

    monkeypatch.setattr(FlowStatus, "snapshot", counting_snapshot)
    gateway = make_gateway(dfms, workers=2)
    for index in range(3):
        gateway.submit(make_request(
            dfms, flow_builder(f"async-{index}")
            .step("s", "dgl.sleep", duration=1).build()))
    answers = []

    def client(name):
        answers.append((yield from gateway.submit_sync(make_request(
            dfms, flow_builder(name).step("s", "dgl.sleep", duration=1)
            .build(), asynchronous=False))))

    dfms.env.process(client("sync-0"))
    dfms.env.process(client("sync-1"))
    dfms.env.run()
    assert gateway.completed == gateway.succeeded == 5
    assert sorted(name for name in copied if name != "s") == [
        "sync-0", "sync-1"]
    assert [answer.body.state for answer in answers] == [
        ExecutionState.COMPLETED] * 2
