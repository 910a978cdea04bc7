"""Unit tests for contention-aware transfers."""

import random

import pytest

from benchmarks import _network_reference as reference
from repro.errors import NoRouteError, TransferInterrupted
from repro.network import Topology, TransferService
from repro.sim import Environment
from repro.storage import MB


def simple_topology(bandwidth=10 * MB, latency=0.0):
    topo = Topology()
    topo.connect("A", "B", latency, bandwidth)
    return topo


def test_single_transfer_matches_analytic_time():
    env = Environment()
    svc = TransferService(env, simple_topology(latency=0.5))

    def run():
        stats = yield svc.transfer("A", "B", 100 * MB)
        return stats

    stats = env.run_process(run())
    assert stats.duration == pytest.approx(0.5 + 10.0)
    assert svc.total_bytes_moved == 100 * MB


def test_local_transfer_is_instantaneous():
    env = Environment()
    svc = TransferService(env, simple_topology())

    def run():
        stats = yield svc.transfer("A", "A", 100 * MB)
        return stats

    stats = env.run_process(run())
    assert stats.duration == 0.0


def test_two_transfers_share_the_link():
    env = Environment()
    svc = TransferService(env, simple_topology())

    def run():
        t1 = svc.transfer("A", "B", 100 * MB)
        t2 = svc.transfer("A", "B", 100 * MB)
        results = yield env.all_of([t1, t2])
        return [s.duration for s in results.values()]

    durations = env.run_process(run())
    # Two equal transfers over a shared link each take twice as long.
    assert durations[0] == pytest.approx(20.0, rel=1e-6)
    assert durations[1] == pytest.approx(20.0, rel=1e-6)


def test_short_transfer_finishes_then_long_speeds_up():
    env = Environment()
    svc = TransferService(env, simple_topology())

    def run():
        long = svc.transfer("A", "B", 100 * MB)
        short = svc.transfer("A", "B", 20 * MB)
        results = yield env.all_of([long, short])
        by_bytes = {s.nbytes: s for s in results.values()}
        return by_bytes

    by_bytes = env.run_process(run())
    # Shared until the short one's 20 MB complete at t=4 (10 MB each by then);
    # the long one then runs alone: 4 + (100-20)/10 = 12? No: at t=4 each
    # moved 2 s * 5 MB/s... with fair sharing each gets 5 MB/s, short
    # finishes at t=4, long has 80 MB left at full 10 MB/s -> t=12.
    assert by_bytes[20 * MB].duration == pytest.approx(4.0, rel=1e-6)
    assert by_bytes[100 * MB].duration == pytest.approx(12.0, rel=1e-6)


def test_disjoint_links_do_not_contend():
    topo = Topology()
    topo.connect("A", "B", 0.0, 10 * MB)
    topo.connect("C", "D", 0.0, 10 * MB)
    env = Environment()
    svc = TransferService(env, topo)

    def run():
        t1 = svc.transfer("A", "B", 100 * MB)
        t2 = svc.transfer("C", "D", 100 * MB)
        results = yield env.all_of([t1, t2])
        return [s.duration for s in results.values()]

    durations = env.run_process(run())
    assert all(d == pytest.approx(10.0, rel=1e-6) for d in durations)


def test_multi_hop_transfer_limited_by_bottleneck():
    topo = Topology()
    topo.connect("A", "B", 0.0, 100 * MB)
    topo.connect("B", "C", 0.0, 10 * MB)
    env = Environment()
    svc = TransferService(env, topo)

    def run():
        stats = yield svc.transfer("A", "C", 100 * MB)
        return stats

    stats = env.run_process(run())
    assert stats.duration == pytest.approx(10.0, rel=1e-6)


def test_zero_byte_transfer_completes():
    env = Environment()
    svc = TransferService(env, simple_topology())

    def run():
        stats = yield svc.transfer("A", "B", 0.0)
        return stats

    stats = env.run_process(run())
    assert stats.nbytes == 0.0


def test_completed_history_is_recorded():
    env = Environment()
    svc = TransferService(env, simple_topology())

    def run():
        yield svc.transfer("A", "B", MB)
        yield svc.transfer("B", "A", 2 * MB)

    env.run_process(run())
    assert [s.nbytes for s in svc.completed] == [MB, 2 * MB]


def test_effective_bandwidth_reported():
    env = Environment()
    svc = TransferService(env, simple_topology())

    def run():
        stats = yield svc.transfer("A", "B", 100 * MB)
        return stats

    stats = env.run_process(run())
    assert stats.effective_bandwidth_bps == pytest.approx(10 * MB, rel=1e-6)


def test_connect_mid_simulation_reroutes_new_transfers():
    # The route cache must notice a link replacement between transfers:
    # the first transfer sees the slow link, the second the fast one.
    topo = Topology()
    topo.connect("A", "B", 0.0, 10 * MB)
    env = Environment()
    svc = TransferService(env, topo)

    def run():
        first = yield svc.transfer("A", "B", 100 * MB)
        topo.connect("A", "B", 0.0, 100 * MB)  # upgrade mid-simulation
        second = yield svc.transfer("A", "B", 100 * MB)
        return first, second

    first, second = env.run_process(run())
    assert first.duration == pytest.approx(10.0, rel=1e-6)
    assert second.duration == pytest.approx(1.0, rel=1e-6)


def test_in_flight_transfer_keeps_its_link_after_replacement():
    # A streaming transfer holds the Link objects it was admitted with; a
    # replacement nobody reports through replace_link only affects
    # transfers admitted afterwards.
    topo = Topology()
    topo.connect("A", "B", 0.0, 10 * MB)
    env = Environment()
    svc = TransferService(env, topo)

    def run():
        done = svc.transfer("A", "B", 100 * MB)
        yield env.timeout(1.0)
        topo.connect("A", "B", 0.0, 100 * MB)
        stats = yield done
        return stats

    stats = env.run_process(run())
    assert stats.duration == pytest.approx(10.0, rel=1e-6)


def test_transfer_in_latency_phase_streams_over_degraded_link():
    # The link degrades while the transfer is still in its latency phase,
    # so replace_link has no streaming transfer to re-point: admission
    # itself must pick up the degraded link.
    topo = Topology()
    topo.connect("A", "B", 0.05, 100 * MB)
    env = Environment()
    svc = TransferService(env, topo)

    def run():
        done = svc.transfer("A", "B", 100 * MB)
        yield env.timeout(0.01)
        assert svc.replace_link(topo.connect("A", "B", 0.05, 10 * MB)) == 0
        stats = yield done
        return stats

    stats = env.run_process(run())
    assert stats.end_time == pytest.approx(10.05, rel=1e-9)


def test_link_utilization_reads_per_link_index():
    topo = Topology()
    link_ab = topo.connect("A", "B", 0.0, 10 * MB)
    link_cd = topo.connect("C", "D", 0.0, 10 * MB)
    env = Environment()
    svc = TransferService(env, topo)

    def run():
        t1 = svc.transfer("A", "B", 100 * MB)
        t2 = svc.transfer("A", "B", 100 * MB)
        t3 = svc.transfer("C", "D", 100 * MB)
        yield env.timeout(1.0)
        shared = svc.link_utilization(link_ab)
        alone = svc.link_utilization(link_cd)
        yield env.all_of([t1, t2, t3])
        return shared, alone

    shared, alone = env.run_process(run())
    assert shared == pytest.approx(1.0)  # two transfers saturate the link
    assert alone == pytest.approx(1.0)
    assert svc.link_utilization(link_ab) == 0.0  # idle again; index empty
    assert svc._by_link == {}


def test_active_set_bookkeeping_is_consistent():
    env = Environment()
    svc = TransferService(env, simple_topology())

    def run():
        events = [svc.transfer("A", "B", 10 * MB) for _ in range(5)]
        yield env.timeout(0.1)
        mid = svc.active_count
        yield env.all_of(events)
        return mid

    mid = env.run_process(run())
    assert mid == 5
    assert svc.active_count == 0
    # Every route class emptied and dropped; whatever is left in the heap
    # is stale.
    assert svc._classes == {}
    assert all(entry[3].entry is not entry for entry in svc._finish_heap)
    assert svc._timer is None


# -- live engine vs the frozen reference ------------------------------------


def rates_full(svc):
    """Every active transfer's fair-share rate, computed from scratch."""
    by_link = svc._by_link
    return {
        transfer: min(link.bandwidth_bps / len(by_link[link.ends])
                      for link in transfer.links)
        for transfer in svc._active
    }


def check_route_classes(svc):
    """Each class's members share one rate, that rate is the from-scratch
    one, and the class holds exactly one live heap entry: its head's."""
    expected = rates_full(svc)
    live = [entry[3] for entry in svc._finish_heap if entry[3].entry is entry]
    assert len(live) == len(set(live)) == len(svc._classes)
    assert set(live) == set(svc._classes.values())
    assert sum(len(c.members) for c in live) == len(svc._active)
    for key, route_class in svc._classes.items():
        members = route_class.members
        assert len({transfer.rate for transfer in members}) == 1
        assert all(transfer.rate == expected[transfer] for transfer in members)
        assert all(transfer.links == key
                   and transfer.route_class is route_class
                   for transfer in members)
        assert route_class.entry[:2] == min(
            (transfer.finish, transfer.seq) for transfer in members)


def random_scenario(rng):
    """A random connected topology plus a randomized transfer schedule."""
    domains = [f"d{index}" for index in range(10)]
    spec = []
    for index in range(1, len(domains)):
        spec.append((domains[rng.randrange(index)], domains[index],
                     rng.uniform(0.001, 0.02), rng.choice([10, 25, 100]) * MB))
    for _ in range(6):
        a, b = rng.sample(domains, 2)
        spec.append((a, b, rng.uniform(0.001, 0.02),
                     rng.choice([10, 25, 100]) * MB))
    plan = sorted((rng.uniform(0.0, 5.0), *rng.sample(domains, 2),
                   rng.uniform(1.0, 80.0) * MB) for _ in range(60))
    return spec, plan


def run_scenario(service_class, spec, plan, ops=(), probe=None, **kwargs):
    """Drive ``plan`` (and the link ``ops``) through one engine.

    Returns the completions in completion order, and every interruption
    and unroutable start in the order they happened.
    """
    env = Environment()
    topo = Topology()
    base = {}
    for a, b, latency, bandwidth in spec:
        base[frozenset((a, b))] = topo.connect(a, b, latency, bandwidth)
    svc = service_class(env, topo, **kwargs)
    failures = []

    def watch(done):
        try:
            yield done
        except TransferInterrupted as exc:
            failures.append(("interrupted", exc.src, exc.dst, exc.nbytes,
                             exc.transferred, env.now))

    def apply(op):
        kind, a, b, factor = op
        ends = frozenset((a, b))
        link = base[ends]
        if kind == "down":
            topo.disconnect(a, b)
            svc.down_links.add(ends)
            svc.fail_link(a, b)
            return
        svc.down_links.discard(ends)
        new = topo.connect(a, b, link.latency_s, link.bandwidth_bps * factor)
        if kind != "silent":
            # "silent" models a topology change nobody told the engine
            # about: streaming transfers keep the old link, so the next
            # re-point ("degrade"/"restore"/"up") merges route classes.
            svc.replace_link(new)

    def starter():
        watchers = []
        timeline = sorted([(at, 0, entry) for at, *entry in plan]
                          + [(at, 1, op) for at, op in ops],
                          key=lambda item: item[:2])
        for at, is_op, entry in timeline:
            if at > env.now:
                yield env.timeout(at - env.now)
            if is_op:
                apply(entry)
                continue
            try:
                done = svc.transfer(*entry)
            except NoRouteError:
                failures.append(("no-route", *entry, env.now))
                continue
            watchers.append(env.process(watch(done)))
        yield env.all_of(watchers)

    proc = env.process(starter())
    while proc.is_alive:
        env.run(until=env.now + 0.31)
        if probe is not None:
            probe(svc)
    env.run()
    completions = [(s.src, s.dst, s.nbytes, s.start_time, s.end_time)
                   for s in svc.completed]
    return completions, failures


def test_affected_set_rates_match_full_recompute_randomized():
    rng = random.Random(0xDA7A)
    for _ in range(3):
        spec, plan = random_scenario(rng)
        live, _ = run_scenario(TransferService, spec, plan,
                               probe=check_route_classes)
        full, _ = run_scenario(reference.TransferService, spec, plan,
                               incremental=False)
        # Completion times are bit-identical, not merely approximate.
        assert sorted(live) == sorted(full)


def contended_scenario(rng):
    """Shared and disjoint routes, tie-prone sibling transfers, and link
    faults, degradations and silent replacements mid-flight."""
    leaves = [f"leaf{index}" for index in range(4)]
    domains = [f"d{index}" for index in range(6)]
    # Sibling leaves hang off one hub over equal links: equal-size
    # transfers to them finish at the same instant in different classes.
    spec = [("hub", leaf, 0.01, 25 * MB) for leaf in leaves]
    spec.append(("hub", domains[0], 0.005, 100 * MB))
    for index in range(1, len(domains)):
        spec.append((domains[rng.randrange(index)], domains[index],
                     rng.uniform(0.001, 0.02), rng.choice([10, 25, 100]) * MB))
    for _ in range(3):
        a, b = rng.sample(domains, 2)
        spec.append((a, b, rng.uniform(0.001, 0.02),
                     rng.choice([10, 25, 100]) * MB))
    everyone = leaves + domains + ["hub"]
    plan = []
    for _ in range(30):
        at = round(rng.uniform(0.0, 6.0), 2)
        shape = rng.random()
        if shape < 0.3:
            # Same route, same instant: one class whose members finish
            # out of admission order, equal sizes tying inside it.
            src, dst = rng.sample(everyone, 2)
            plan += [(at, src, dst, rng.choice([10, 20, 40]) * MB)
                     for _ in range(rng.randint(2, 4))]
        elif shape < 0.5:
            # Sibling leaves: ties across classes.
            nbytes = rng.choice([10, 20, 40]) * MB
            src = rng.choice(domains)
            plan += [(at, src, leaf, nbytes)
                     for leaf in rng.sample(leaves, rng.randint(2, 4))]
        else:
            plan.append((at, *rng.sample(everyone, 2),
                         rng.uniform(1.0, 60.0) * MB))
    plan.sort(key=lambda entry: entry[0])
    # Link changes happen only while no transfer is in its latency phase:
    # the frozen reference predates re-resolving links at admission.
    window = sum(latency for _, _, latency, _ in spec)
    starts = sorted({entry[0] for entry in plan})
    free = [at for at in (round(rng.uniform(0.0, 9.0), 3) for _ in range(80))
            if not any(start <= at <= start + window for start in starts)]
    ops = []
    links = [(a, b) for a, b, _, _ in spec]
    for a, b in rng.sample(links, min(6, len(free) // 2)):
        begin, end = sorted(rng.sample(free, 2))
        free = [at for at in free if at not in (begin, end)]
        kind = rng.choice(["degrade", "down", "silent", "silent"])
        factor = rng.choice([0.25, 0.5, 2.0])
        if kind == "down":
            ops += [(begin, ("down", a, b, 1.0)), (end, ("up", a, b, 1.0))]
        else:
            ops += [(begin, (kind, a, b, factor)),
                    (end, ("restore", a, b, 1.0))]
    return spec, plan, sorted(ops, key=lambda op: op[0])


def test_route_classes_match_frozen_reference_in_completion_order():
    rng = random.Random(0xC1A55)
    for _ in range(6):
        spec, plan, ops = contended_scenario(rng)
        live = run_scenario(TransferService, spec, plan, ops,
                            probe=check_route_classes)
        frozen = run_scenario(reference.TransferService, spec, plan, ops)
        # Same completions, in the same order, at the same instants, and
        # the same interruptions at the same byte offsets.
        assert live == frozen
        assert live[0]


def test_tied_finishers_complete_in_projection_order():
    # Two sibling classes of equal 10 MB transfers finish at one instant;
    # class X also holds a larger transfer admitted first. Completions
    # follow (finish, seq): X's tied pair, then Y's trio, then the large
    # one — popping X's head must hand the merge X's next-earliest member,
    # not its oldest.
    def run(service_class):
        topo = Topology.star("hub", ["x", "y"], latency_s=0.01,
                             bandwidth_bps=30 * MB)
        env = Environment()
        svc = service_class(env, topo)
        order = [("x", 30 * MB), ("y", 10 * MB), ("x", 10 * MB),
                 ("y", 10 * MB), ("x", 10 * MB), ("y", 10 * MB)]
        events = [svc.transfer("hub", dst, nbytes) for dst, nbytes in order]
        env.run()
        rank = {id(stats): index for index, stats in enumerate(svc.completed)}
        return [rank[id(event.value)] for event in events], [
            stats.end_time for stats in svc.completed]

    ranks, ends = run(TransferService)
    assert ranks == [5, 2, 0, 3, 1, 4]
    assert len(set(ends[:5])) == 1
    assert run(reference.TransferService) == (ranks, ends)
