"""Every document a seeded gateway run puts on the wire reads back.

DGL is the wire format between clients and the DfMS (Appendix A, Figs.
2 and 4). A small seeded run sends heavy-tailed traffic through a
deliberately tight gateway, so it sheds for both reasons, and then asks
for status trees at every depth. Every request the server or the
gateway receives and every response either returns must satisfy
``from_xml(to_xml(x)) == x``.
"""

import pytest

from repro.dfms.gateway import DfMSGateway, VOPolicy
from repro.dgl import (
    DataGridRequest,
    FlowStatus,
    FlowStatusQuery,
    RequestAcknowledgement,
    RequestRejection,
    flow_builder,
    from_xml,
    to_xml,
)
from repro.sim.rng import RandomStreams
from repro.workloads import cms_scenario
from repro.workloads.traffic import TrafficGenerator, TrafficProfile


class _WireTap:
    """Records every document crossing ``submit``/``submit_sync``."""

    def __init__(self) -> None:
        self.documents = []

    def tap(self, target, *names) -> None:
        for name in names:
            setattr(target, name, self._wrap(getattr(target, name)))

    def tap_sync(self, target) -> None:
        method = target.submit_sync
        documents = self.documents

        def submit_sync(request):
            documents.append(request)
            response = yield from method(request)
            documents.append(response)
            return response

        target.submit_sync = submit_sync

    def _wrap(self, method):
        documents = self.documents

        def wrapper(request, *args):
            documents.append(request)
            response = method(request, *args)
            documents.append(response)
            return response

        return wrapper


def _nested_flow():
    """Three levels of children below the root: outer/middle/inner/a."""
    inner = (flow_builder("inner")
             .step("a", "dgl.sleep", duration=1)
             .step("b", "dgl.sleep", duration=1))
    tail = flow_builder("tail").step("c", "dgl.sleep", duration=1)
    middle = flow_builder("middle").subflow(inner).subflow(tail)
    side = flow_builder("side").step("d", "dgl.sleep", duration=2)
    return (flow_builder("outer").parallel()
            .subflow(middle).subflow(side).build())


def _height(status: FlowStatus) -> int:
    return max((1 + _height(child) for child in status.children), default=0)


def _gateway_run(seed: int):
    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1, n_events=0,
                            seed=seed)
    env, server = scenario.env, scenario.server
    gateway = DfMSGateway(env, server, workers=2, queue_limit=3,
                          default_policy=VOPolicy(rate=1.5, burst=3.0))
    wire = _WireTap()
    wire.tap(server, "submit", "start_flow")
    wire.tap_sync(server)
    wire.tap(gateway, "submit")
    wire.tap_sync(gateway)
    user = scenario.users["physicist"].qualified_name
    profile = TrafficProfile(mean_interarrival_s=0.4, sync_fraction=0.2,
                             flow_steps=2, step_duration_s=3.0)
    generator = TrafficGenerator(env, gateway, user, profile,
                                 streams=RandomStreams(seed), horizon_s=20.0)
    generator.start()

    def monitor():
        ack = gateway.submit(DataGridRequest(
            user=user, virtual_organization="vo-monitor",
            body=_nested_flow(), asynchronous=True))
        request_id = ack.request_id
        yield env.timeout(1.5)
        for max_depth in (None, 0, 1, 2, 3):
            for path in (None, "middle", "middle/inner"):
                query = DataGridRequest(
                    user=user, virtual_organization="vo-monitor",
                    body=FlowStatusQuery(request_id=request_id, path=path,
                                         max_depth=max_depth))
                gateway.submit(query)
                server.submit(query)
        yield from gateway.submit_sync(DataGridRequest(
            user=user, virtual_organization="vo-monitor",
            body=_nested_flow()))

    env.process(monitor())
    env.run(until=80.0)
    return wire.documents, gateway


@pytest.mark.parametrize("seed", [0, 1])
def test_every_document_on_the_wire_round_trips(seed):
    documents, gateway = _gateway_run(seed)
    for document in documents:
        assert from_xml(to_xml(document)) == document
    bodies = [document.body for document in documents]
    # The run covers every document kind the protocol has.
    assert any(isinstance(body, FlowStatusQuery) for body in bodies)
    assert any(isinstance(body, RequestAcknowledgement) for body in bodies)
    assert {body.reason for body in bodies
            if isinstance(body, RequestRejection)} == set(gateway.sheds)
    assert set(gateway.sheds) == {"throttled", "queue-full"}
    depths = {body.max_depth for body in bodies
              if isinstance(body, FlowStatusQuery)}
    assert depths == {None, 0, 1, 2, 3}
    trees = [body for body in bodies if isinstance(body, FlowStatus)]
    assert max(_height(tree) for tree in trees) == 3
    assert any(not tree.children for tree in trees)
