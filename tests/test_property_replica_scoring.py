"""Differential property test: one-pass replica scoring equals the
per-candidate reference.

``DataGridManagementSystem.nearest_replica`` reads every candidate's
route from the destination's route map in one pass. The reference is
the selection it replaced, frozen here: the lowest
``(topology.transfer_time(r.domain, dst, size), r.replica_number)``,
one call per candidate. It is evaluated twice, on the live topology and
on a fresh one built by replaying the same link history, so a route map
that outlived a ``connect``, ``disconnect`` or link replacement cannot
agree with a reference that shares its staleness.

Generated star, mesh and chain topologies draw latencies and
bandwidths from two or three values each, so equal-cost candidates are
common and the tie-break is exercised. Objects hold several replicas
per domain, replicas on the reading domain, stale replicas, and
replicas on an unlinked domain, whose reads must raise
:class:`NoRouteError` on both sides. ``CostModel.stage_in_seconds``
must equal the old sum of per-input minimum transfer times bit for bit.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dfms.compute import ComputeResource
from repro.dfms.scheduler import CostModel, TaskSpec
from repro.errors import NetworkError, NoRouteError
from repro.grid import DataGridManagementSystem
from repro.grid.namespace import Replica, ReplicaState
from repro.network import Topology
from repro.sim import Environment
from repro.storage import GB, MB

LATENCIES = (0.0, 0.01, 0.05)
BANDWIDTHS = (1 * MB, 10 * MB)
SIZES = (0.0, 1.0, 3 * MB, 7.5 * MB, 2 * GB)
#: A registered domain with no links: every route into or out of it fails.
ISLAND = "island"


def reference_choice(topology, replicas, dst, size):
    """The selection ``nearest_replica`` replaced, frozen."""
    return min(replicas, key=lambda r: (
        topology.transfer_time(r.domain, dst, size), r.replica_number))


def reference_stage_in(topology, objects, dst):
    """``CostModel.stage_in_seconds`` before it shared the scorer."""
    total = 0.0
    for obj in objects:
        total += min(topology.transfer_time(r.domain, dst, obj.size)
                     for r in obj.good_replicas())
    return total


def outcome(call):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return "ok", call()
    except (NetworkError, NoRouteError) as exc:
        return "raise", type(exc)


def replay(domains, history):
    """A topology with no cache, built by the same link operations."""
    topology = Topology()
    for name in domains:
        topology.add_domain(name)
    for op in history:
        if op[0] == "connect":
            topology.connect(*op[1:])
        else:
            topology.disconnect(*op[1:])
    return topology


def shape_links(shape, domains):
    if shape == "star":
        return [(domains[0], leaf) for leaf in domains[1:]]
    if shape == "chain":
        return list(zip(domains, domains[1:]))
    return [(a, b) for i, a in enumerate(domains) for b in domains[i + 1:]]


@st.composite
def scenarios(draw):
    shape = draw(st.sampled_from(("star", "mesh", "chain")))
    linked = [f"d{i}" for i in range(draw(st.integers(2, 6)))]
    domains = linked + [ISLAND]
    history = [("connect", a, b, draw(st.sampled_from(LATENCIES)),
                draw(st.sampled_from(BANDWIDTHS)))
               for a, b in shape_links(shape, linked)]
    objects = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.sampled_from(SIZES)
                    | st.floats(0, 1e10, allow_nan=False))
        # Weighted toward linked domains; the island makes reads fail.
        placement = draw(st.lists(
            st.tuples(st.sampled_from(linked + linked + [ISLAND]),
                      st.booleans()),
            min_size=1, max_size=8))
        objects.append((size, placement))
    link_ops = st.one_of(
        st.tuples(st.just("connect"), st.sampled_from(linked),
                  st.sampled_from(linked), st.sampled_from(LATENCIES),
                  st.sampled_from(BANDWIDTHS)),
        st.tuples(st.just("disconnect"), st.sampled_from(linked),
                  st.sampled_from(linked)))
    ops = draw(st.lists(
        st.one_of(st.tuples(st.just("select"), st.sampled_from(domains)),
                  link_ops),
        min_size=1, max_size=12))
    return domains, history, objects, ops, draw(st.randoms())


def build(domains, history, objects, rng):
    topology = replay(domains, history)
    dgms = DataGridManagementSystem(Environment(), topology)
    dgms.namespace.create_collection("/data", None, 0.0)
    numbers = list(range(1, 1 + sum(len(p) for _, p in objects)))
    rng.shuffle(numbers)    # list order is not replica-number order
    built = []
    for index, (size, placement) in enumerate(objects):
        obj = dgms.namespace.create_object(f"/data/o{index}", size, None, 0.0)
        for domain, good in placement:
            number = numbers.pop()
            replica = Replica(obj.guid, "lr", domain, f"disk-{number}", 0.0,
                              replica_number=number)
            if not good:
                replica.state = ReplicaState.STALE
            obj.add_replica(replica)
        if not obj.good_replicas():
            obj.replicas[0].state = ReplicaState.GOOD
        built.append(obj)
    return topology, dgms, built


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_nearest_equals_the_per_candidate_reference(scenario):
    domains, history, objects, ops, rng = scenario
    topology, dgms, built = build(domains, history, objects, rng)
    history = list(history)
    for op in ops:
        if op[0] == "connect":
            if op[1] == op[2]:
                continue
            topology.connect(*op[1:])
            history.append(op)
        elif op[0] == "disconnect":
            if topology.disconnect(*op[1:]) is not None:
                history.append(op)
        else:
            dst = op[1]
            fresh = replay(domains, history)
            for obj in built:
                good = obj.good_replicas()
                chosen = outcome(
                    lambda: dgms.select_replica(obj, dst, "nearest"))
                assert chosen == outcome(lambda: reference_choice(
                    topology, good, dst, obj.size))
                assert chosen == outcome(lambda: reference_choice(
                    fresh, good, dst, obj.size))
                scored = outcome(lambda: dgms.nearest_replica(
                    obj, dst, good)[1].hex())
                assert scored == outcome(lambda: min(
                    fresh.transfer_time(r.domain, dst, obj.size)
                    for r in good).hex())
            task = TaskSpec("t", 1.0,
                            input_paths=[obj.path for obj in built])
            staged = outcome(lambda: CostModel(dgms).stage_in_seconds(
                task, ComputeResource("c", dst, 1)).hex())
            assert staged == outcome(
                lambda: reference_stage_in(fresh, built, dst).hex())


def test_a_tie_goes_to_the_lowest_replica_number():
    topology = Topology.star("hub", ["a", "b", "c"], 0.01, 10 * MB)
    dgms = DataGridManagementSystem(Environment(), topology)
    dgms.namespace.create_collection("/data", None, 0.0)
    obj = dgms.namespace.create_object("/data/x", 4 * MB, None, 0.0)
    for number, domain in ((7, "c"), (3, "a"), (5, "b")):
        obj.add_replica(Replica(obj.guid, "lr", domain, f"disk-{number}",
                                0.0, replica_number=number))
    chosen, cost = dgms.nearest_replica(obj, "hub", obj.replicas)
    assert chosen.replica_number == 3
    assert cost == topology.transfer_time("a", "hub", 4 * MB)
    # A replica on the reading domain is free, whatever its number.
    obj.add_replica(Replica(obj.guid, "lr", "hub", "disk-9", 0.0,
                            replica_number=9))
    assert dgms.nearest_replica(obj, "hub", obj.replicas) == (
        obj.replicas[-1], 0.0)


def test_unknown_domains_raise_network_error_on_both_sides():
    topology = Topology.star("hub", ["a"], 0.01, MB)
    dgms = DataGridManagementSystem(Environment(), topology)
    dgms.namespace.create_collection("/data", None, 0.0)
    obj = dgms.namespace.create_object("/data/x", MB, None, 0.0)
    obj.add_replica(Replica(obj.guid, "lr", "a", "disk-1", 0.0,
                            replica_number=1))
    for dst in ("ghost", "hub"):
        if dst == "hub":
            obj.add_replica(Replica(obj.guid, "lr", "ghost", "disk-2", 0.0,
                                    replica_number=0))
        assert outcome(lambda: dgms.select_replica(obj, dst)) == outcome(
            lambda: reference_choice(topology, obj.good_replicas(), dst,
                                     obj.size)) == ("raise", NetworkError)


def test_route_maps_follow_every_topology_change():
    topology = Topology()
    topology.connect("a", "b", 0.01, MB)
    topology.connect("b", "c", 0.01, MB)
    routes = topology.routes_to("c")
    assert routes["a"].latency_s == pytest.approx(0.02)
    # A new shorter link, a replacement and a removal each start a
    # fresh map for the destination.
    topology.connect("a", "c", 0.001, MB)
    assert topology.routes_to("c") is not routes
    assert topology.routes_to("c")["a"].latency_s == 0.001
    topology.connect("a", "c", 0.001, 5 * MB)
    assert topology.routes_to("c")["a"].bottleneck_bps == 5 * MB
    topology.disconnect("a", "c")
    assert topology.routes_to("c")["a"].latency_s == pytest.approx(0.02)
    assert topology.transfer_time("a", "c", 0) == pytest.approx(0.02)


def test_failed_lookups_are_not_cached():
    topology = Topology()
    topology.connect("a", "b", 0.01, MB)
    topology.add_domain(ISLAND)
    with pytest.raises(NoRouteError):
        topology.routes_to("a")[ISLAND]
    with pytest.raises(NoRouteError):
        topology.transfer_time(ISLAND, "a", 1.0)
    assert ISLAND not in topology.routes_to("a")
    with pytest.raises(NetworkError):
        topology.routes_to("ghost")
    with pytest.raises(NetworkError):
        topology.routes_to("a")["ghost"]
    assert "ghost" not in topology.routes_to("a")
    # Once linked, the island routes.
    topology.connect(ISLAND, "b", 0.01, MB)
    assert len(topology.route(ISLAND, "a")) == 2
