"""Differential property test: incremental digest publication equals a
full rebuild.

The replica location service keeps each zone's guids partitioned by
index shard, current through the LRC's change feed, and republishes a
dirty shard from that shard's members alone. The reference here does
what publication did before the partition existed: beside every
``publish_shards`` call it rebuilds the same shards, at the same sim
time, by scanning the zone's whole guid list.

Random operation sequences run over live federations (put, delete, move
within a zone, guid-adopting cross-zone copy) and over synthetic LRCs
(``add``, ``discard``, bulk load plus ``publish_zone``), with seeded
digest syncers and with synchronous publication. After every step each
(shard, zone) cell's ``bits``, ``n_bits``, ``count`` and
``published_at`` must equal the reference's, and after every flush each
cell must also equal a rebuild from the zone's current membership, and
every ``locate`` answer must equal one computed the old way: digest
candidates from the reference cells first, then one LRC query each.
"""

import types
from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import given, settings

import repro.federation.rls as rls_module
from repro.federation import (
    BloomDigest,
    DigestSyncer,
    LocalReplicaCatalog,
    ReplicaLocation,
    ReplicaLocationService,
    federation_scenario,
    shard_of,
)
from repro.grid.acl import Permission
from repro.sim.kernel import Environment
from repro.storage import MB

N_SHARDS = 4


def scan_digest(lrc, shard_index, n_shards):
    """One shard's digest from a scan of the zone's whole guid list."""
    guids = [guid for guid in lrc.guids()
             if shard_of(guid, n_shards) == shard_index]
    digest = BloomDigest.for_capacity(len(guids))
    for guid in guids:
        digest.add(guid)
    return digest


def cell_state(digest, published_at):
    return (bytes(digest.bits), digest.n_bits, digest.count, published_at)


@contextmanager
def full_rebuild_reference():
    """Record, beside every publication any service makes, the cell a
    full scan gives for the same shard at the same time. Yields the
    per-service reference: ``{service: {(shard, zone): state}}``."""
    original = ReplicaLocationService.publish_shards
    references = {}

    def publish_shards(self, zone_name, shard_indexes):
        shard_indexes = list(shard_indexes)
        original(self, zone_name, shard_indexes)
        cells = references.setdefault(self, {})
        for shard_index in shard_indexes:
            cells[shard_index, zone_name] = cell_state(
                scan_digest(self.lrc(zone_name), shard_index,
                            self.index.n_shards), self.now)

    ReplicaLocationService.publish_shards = publish_shards
    try:
        yield references
    finally:
        ReplicaLocationService.publish_shards = original


def published_cells(service):
    return {(shard_index, zone): cell_state(cell.digest, cell.published_at)
            for shard_index, shard in enumerate(service.index._shards)
            for zone, cell in shard.items()}


def check_against_reference(service, reference):
    assert published_cells(service) == reference


def check_converged(service):
    """Every cell holds exactly the zone's current members."""
    for (shard_index, zone), (bits, n_bits, count, _) in \
            published_cells(service).items():
        expected = scan_digest(service.lrc(zone), shard_index,
                               service.index.n_shards)
        assert (bits, n_bits, count) == (
            bytes(expected.bits), expected.n_bits, expected.count)


def reference_locate(service, reference, guid):
    """The pre-one-pass locate over the reference cells: collect every
    digest match first, then query each matching zone's LRC."""
    shard_index = shard_of(guid, service.index.n_shards)
    zones = list(service.index._shards[shard_index])
    candidates = []
    for zone in zones:
        bits, n_bits, _, published_at = reference[shard_index, zone]
        digest = BloomDigest(n_bits)
        digest.bits = bytearray(bits)
        if digest.might_contain(guid):
            candidates.append((zone, published_at))
    locations, false_positives, max_staleness = [], 0, 0.0
    for zone, published_at in candidates:
        max_staleness = max(max_staleness, service.now - published_at)
        found = service.lrc(zone).locations(guid)
        if found:
            locations.extend(found)
        else:
            false_positives += 1
    return (guid, tuple(locations), shard_index, 1, len(zones),
            len(candidates), false_positives, max_staleness)


def check_locates(service, reference, guids):
    for guid in guids:
        before = (service.lookups, service.hits, service.misses,
                  service.lrc_queries, service.false_positives)
        result = service.locate(guid)
        expected = reference_locate(service, reference, guid)
        assert tuple(result) == expected
        found = bool(expected[1])
        assert (service.lookups, service.hits, service.misses,
                service.lrc_queries, service.false_positives) == (
            before[0] + 1, before[1] + found, before[2] + (not found),
            before[3] + expected[5], before[4] + expected[6])


# -- live federations -----------------------------------------------------

live_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2), st.integers(0, 11)),
    st.tuples(st.just("delete"), st.integers(0, 2), st.integers(0, 9)),
    st.tuples(st.just("move"), st.integers(0, 2), st.integers(0, 9),
              st.integers(0, 11)),
    st.tuples(st.just("copy"), st.integers(0, 2), st.integers(0, 9),
              st.integers(0, 2), st.integers(0, 11)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 7.0])),
    st.tuples(st.just("flush"))), max_size=14)


def _objects(dgms):
    return sorted(obj.path for obj in dgms.namespace.iter_objects("/"))


def _apply_live(scenario, op):
    zones = sorted(scenario.zones)
    kind = op[0]
    if kind == "advance":
        scenario.env.run(until=scenario.env.now + op[1])
        return
    if kind == "flush":
        scenario.rls.flush_all()
        return
    zone = zones[op[1] % len(zones)]
    dgms = scenario.zones[zone]
    admin = scenario.admins[zone]
    if kind == "put":
        path = f"/data/n{op[2]:02d}.dat"
        if not dgms.namespace.exists(path):
            obj = scenario.run(_wait(dgms.put(admin, path, 1 * MB,
                                              f"{zone}-d0-disk")))
            obj.acl.grant("*", Permission.READ)   # copyable by any zone
        return
    paths = _objects(dgms)
    if not paths:
        return
    path = paths[op[2] % len(paths)]
    if kind == "delete":
        scenario.run(_wait(dgms.delete(admin, path)))
    elif kind == "move":
        target = f"/data/m{op[3]:02d}.dat"
        if not dgms.namespace.exists(target):
            dgms.move(admin, path, target)
    else:   # guid-adopting cross-zone copy
        dst = zones[op[3] % len(zones)]
        guid = dgms.namespace.resolve_object(path).guid
        target = f"/data/c{op[4]:02d}.dat"
        target_grid = scenario.zones[dst]
        if (dst == zone or target_grid.namespace.exists(target)
                or target_grid.namespace.lookup_guid(guid) is not None):
            return
        copied = scenario.run(_wait(scenario.federation.cross_zone_copy(
            scenario.admins[dst], zone, path, dst, target,
            f"{dst}-d0-disk")))
        copied.acl.grant("*", Permission.READ)


def _wait(event):
    value = yield event
    return value


@settings(max_examples=50, deadline=None)
@given(n_zones=st.integers(2, 3), synced=st.booleans(), ops=live_ops)
def test_live_incremental_publication_equals_full_rebuild(n_zones, synced,
                                                          ops):
    with full_rebuild_reference() as references:
        scenario = federation_scenario(
            n_zones=n_zones, objects_per_zone=2, n_shards=N_SHARDS,
            sync_period_s=1.0 if synced else None)
        service = scenario.rls
        reference = references[service]
        check_against_reference(service, reference)
        for op in ops:
            _apply_live(scenario, op)
            check_against_reference(service, reference)
            if op[0] == "flush" or not synced:
                check_converged(service)
                guids = sorted({obj.guid
                                for dgms in scenario.zones.values()
                                for obj in dgms.namespace.iter_objects("/")})
                check_locates(service, reference,
                              guids + ["guid-z0-99999999"])
        service.flush_all()
        check_against_reference(service, reference)
        check_converged(service)


# -- synthetic LRCs -------------------------------------------------------

def _guid(index):
    # Guids 0-5 are shared, so several zones can hold the same one.
    return (f"guid-shared-{index:04d}" if index < 6
            else f"guid-synthetic-{index:04d}")


synthetic_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 2), st.integers(0, 29)),
    st.tuples(st.just("discard"), st.integers(0, 2), st.integers(0, 29)),
    st.tuples(st.just("bulk"), st.integers(0, 2),
              st.lists(st.integers(0, 29), max_size=12)),
    st.tuples(st.just("advance"), st.sampled_from([0.3, 1.5, 4.0])),
    st.tuples(st.just("flush"))), max_size=25)


def _synthetic_service(synced):
    env = Environment()
    service = ReplicaLocationService(env, n_shards=N_SHARDS)
    for zone in ("s0", "s1", "s2"):
        lrc = LocalReplicaCatalog(zone)
        service.add_zone(lrc, publish=True)
        if synced:
            service.syncers[zone] = DigestSyncer(env, service, lrc,
                                                 period_s=1.0)
        else:
            lrc.listeners.append(
                lambda guid, zone=zone: service.publish_shards(
                    zone, [service.index.shard_of(guid)]))
    return env, service


def _home(zone):
    return (ReplicaLocation(zone, f"{zone}-d0", f"{zone}-d0-disk",
                            f"{zone}-d0-disk-1"),)


@settings(max_examples=80, deadline=None)
@given(synced=st.booleans(), ops=synthetic_ops)
def test_synthetic_incremental_publication_equals_full_rebuild(synced, ops):
    with full_rebuild_reference() as references:
        env, service = _synthetic_service(synced)
        reference = references[service]
        for op in ops:
            kind = op[0]
            if kind == "advance":
                env.run(until=env.now + op[1])
            elif kind == "flush":
                service.flush_all()
            else:
                zone = service.zone_names()[op[1]]
                lrc = service.lrc(zone)
                if kind == "add":
                    lrc.add(_guid(op[2]), _home(zone))
                elif kind == "discard":
                    lrc.discard(_guid(op[2]))
                else:   # bulk load, bypassing the listeners
                    for index in op[2]:
                        lrc._static[_guid(index)] = _home(zone)
                    service.publish_zone(zone)
            check_against_reference(service, reference)
            if kind in ("flush", "bulk") or not synced:
                if kind != "bulk":
                    check_converged(service)
                check_locates(service, reference,
                              [_guid(index) for index in range(30)])
        service.flush_all()
        check_converged(service)


# -- what a flush hashes --------------------------------------------------

@contextmanager
def counting_crc32():
    """Count every CRC32 the RLS module computes (shard and probe
    hashes alike)."""
    calls = []
    real = rls_module.zlib

    def crc32(data, *value):
        calls.append(data)
        return real.crc32(data, *value)

    rls_module.zlib = types.SimpleNamespace(crc32=crc32)
    try:
        yield calls
    finally:
        rls_module.zlib = real


def test_a_flush_hashes_only_its_dirty_shards():
    # Synthetic zone: a one-shard republish hashes that shard's members
    # (two salted CRCs each) and nothing else of the 400-guid zone.
    service = ReplicaLocationService(n_shards=16)
    lrc = LocalReplicaCatalog("z0")
    service.add_zone(lrc, publish=False)
    for index in range(400):
        lrc._static[f"guid-z0-{index:08d}"] = ()
    service.publish_zone("z0")
    members = [guid for guid in lrc.guids() if shard_of(guid, 16) == 5]
    with counting_crc32() as calls:
        service.publish_shards("z0", [5])
    assert sorted(set(calls)) == sorted(guid.encode() for guid in members)
    assert len(calls) == 2 * len(members)

    # Live zone: a syncer flush after one put hashes the members of the
    # one dirty shard, the new guid among them, and no other guid.
    scenario = federation_scenario(n_zones=2, objects_per_zone=40,
                                   n_shards=16, sync_period_s=5.0)
    dgms = scenario.zones["z1"]
    syncer = scenario.rls.syncers["z1"]
    obj = scenario.run(_wait(dgms.put(scenario.admins["z1"],
                                      "/data/fresh.dat", 1 * MB,
                                      "z1-d0-disk")))
    dirty = shard_of(obj.guid, 16)
    assert syncer.pending_shards == [dirty]
    members = [guid for guid in dgms.namespace.guids()
               if shard_of(guid, 16) == dirty]
    assert obj.guid in members
    with counting_crc32() as calls:
        scenario.rls.flush_all()
    assert sorted(set(calls)) == sorted(guid.encode() for guid in members)
    assert len(calls) == 2 * len(members)
    assert syncer.pending_shards == []
    assert syncer.shards_published == 1
    assert scenario.rls.locate(obj.guid).found
