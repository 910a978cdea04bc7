"""Tests for the two-tier replica location service, digest sync,
the federated namespace router, and cross-zone placement policies."""

import hashlib
import random

import pytest

from repro.errors import FederationError
from repro.federation import (
    BloomDigest,
    FederatedNamespace,
    LocalReplicaCatalog,
    ReplicaLocation,
    ReplicaLocationService,
    attach_rls,
    cross_zone_copy_by_guid,
    federation_scenario,
    rank_source_zones,
    select_source_zone,
    shard_of,
    spread_zones,
)
from repro.grid.dgms import DataGridManagementSystem
from repro.network.topology import Topology
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass


def guid(index):
    return f"guid-test-{index:08d}"


def location(zone):
    return ReplicaLocation(zone, f"{zone}-d0", f"{zone}-d0-disk",
                           f"{zone}-d0-disk-1")


# -- bloom digests -----------------------------------------------------------


def test_bloom_digest_has_no_false_negatives():
    digest = BloomDigest.for_capacity(200)
    keys = [guid(i) for i in range(200)]
    for key in keys:
        digest.add(key)
    assert all(digest.might_contain(key) for key in keys)


def test_bloom_digest_false_positive_rate_is_low():
    digest = BloomDigest.for_capacity(500)
    for i in range(500):
        digest.add(guid(i))
    hits = sum(digest.might_contain(f"absent-{i}") for i in range(2000))
    assert hits / 2000 < 0.05


def test_bloom_digest_bits_are_pinned():
    # Probe positions, and so every digest byte, false positive and LRC
    # query, must not drift when the hashing is reorganized.
    digest = BloomDigest.for_capacity(200)
    for i in range(200):
        digest.add(guid(i))
    assert digest.n_bits == 2000 and digest.count == 200
    assert hashlib.sha256(bytes(digest.bits)).hexdigest() == (
        "8215657a5332af0370417c1d952760a50cc5b1f9ba5184ae3604221bcfd81878")


def test_candidates_agree_with_each_digest():
    # locate tests the shard's digests in one pass; the zones it queries
    # must be exactly those whose digest claims the key.
    service = make_service(n_zones=8, objects_per_zone=40, n_shards=4)
    index = service.index
    rng = random.Random(3)
    probes = [f"guid-z{rng.randrange(10)}-{rng.randrange(60):08d}"
              for _ in range(400)]
    matched_any = 0
    for key in probes:
        queries = {zone: service.lrc(zone).queries
                   for zone in service.zone_names()}
        result = service.locate(key)
        shard = result.shard
        assert shard == shard_of(key, 4)
        expected = [zone for zone, cell in index._shards[shard].items()
                    if cell.digest.might_contain(key)]
        queried = [zone for zone in service.zone_names()
                   if service.lrc(zone).queries > queries[zone]]
        assert queried == sorted(expected)
        assert result.lrc_queries == len(expected)
        assert result.digests_checked == len(index._shards[shard])
        matched_any += bool(expected)
    assert 0 < matched_any < len(probes)


def test_shard_of_is_stable_and_in_range():
    for i in range(100):
        shard = shard_of(guid(i), 16)
        assert 0 <= shard < 16
        assert shard == shard_of(guid(i), 16)


# -- synthetic-mode service --------------------------------------------------


def make_service(n_zones=3, objects_per_zone=10, n_shards=8):
    service = ReplicaLocationService(n_shards=n_shards)
    for z in range(n_zones):
        zone = f"z{z}"
        lrc = LocalReplicaCatalog(zone)
        service.add_zone(lrc, publish=False)
        for i in range(objects_per_zone):
            lrc.add(f"guid-{zone}-{i:08d}", [location(zone)])
        service.publish_zone(zone)
    return service


def test_locate_touches_one_shard_and_returns_the_owner():
    service = make_service()
    result = service.locate("guid-z1-00000003")
    assert result.found
    assert {loc.zone for loc in result.locations} == {"z1"}
    assert result.shards_touched == 1
    assert result.shard == shard_of("guid-z1-00000003", 8)
    # Only digest-matching zones cost an authoritative query.
    assert result.lrc_queries <= result.digests_checked
    assert service.lookups == 1 and service.hits == 1


def test_locate_miss_for_unknown_guid():
    service = make_service()
    result = service.locate("guid-nowhere-00000000")
    assert not result.found
    assert service.misses == 1


def test_stale_digest_is_never_wrong():
    # Remove an entry *without* republishing: the digest still claims
    # the guid, but the authoritative LRC disavows it — the answer must
    # be a (counted) false positive, not a phantom location.
    service = make_service()
    target = "guid-z2-00000004"
    service.lrc("z2")._static.pop(target)
    result = service.locate(target)
    assert not result.found
    assert result.false_positives >= 1
    assert service.false_positives >= 1


def test_duplicate_zone_registration_is_refused():
    service = make_service()
    with pytest.raises(FederationError):
        service.add_zone(LocalReplicaCatalog("z1"))
    with pytest.raises(FederationError):
        service.lrc("ghost")


def test_live_lrc_refuses_synthetic_entries():
    scenario = federation_scenario(seed=0)
    with pytest.raises(FederationError):
        scenario.rls.lrc("z0").add("guid-x", [])


def test_attach_rls_twice_is_refused():
    scenario = federation_scenario(seed=0)
    with pytest.raises(FederationError):
        attach_rls(scenario.federation)


# -- live mode and digest sync -----------------------------------------------


def test_immediate_mode_has_zero_staleness():
    scenario = federation_scenario(seed=1, sync_period_s=None)
    dgms = scenario.zones["z0"]

    def ingest():
        obj = yield dgms.put(scenario.admins["z0"], "/data/fresh.dat",
                             2 * MB, "z0-d0-disk")
        return obj

    obj = scenario.run(ingest())
    result = scenario.rls.locate(obj.guid)
    assert result.found
    assert {loc.zone for loc in result.locations} == {"z0"}


def test_synced_mode_staleness_is_bounded_and_converges():
    scenario = federation_scenario(seed=1, sync_period_s=5.0)
    dgms = scenario.zones["z0"]
    syncer = scenario.rls.syncers["z0"]

    def ingest():
        obj = yield dgms.put(scenario.admins["z0"], "/data/fresh.dat",
                             2 * MB, "z0-d0-disk")
        return obj

    obj = scenario.run(ingest())
    ingested_at = scenario.env.now
    # The new replica is dirty but unpublished: the index cannot know it
    # yet (stale miss), and the flush is armed within the bound.
    assert syncer.pending_shards
    assert not scenario.rls.locate(obj.guid).found
    scenario.env.run()   # drains the armed flush
    assert scenario.env.now - ingested_at <= syncer.staleness_bound_s
    assert not syncer.pending_shards
    result = scenario.rls.locate(obj.guid)
    assert result.found
    assert {loc.zone for loc in result.locations} == {"z0"}


def test_flush_now_publishes_without_waiting():
    scenario = federation_scenario(seed=1, sync_period_s=60.0)
    dgms = scenario.zones["z1"]

    def ingest():
        obj = yield dgms.put(scenario.admins["z1"], "/data/fresh.dat",
                             2 * MB, "z1-d0-disk")
        return obj

    obj = scenario.run(ingest())
    assert not scenario.rls.locate(obj.guid).found
    scenario.rls.flush_all()
    assert scenario.rls.locate(obj.guid).found


def _late_zone(scenario, name):
    """Federate a fresh one-domain zone into a built scenario."""
    dgms = DataGridManagementSystem(scenario.env, Topology(), name=name)
    dgms.register_domain(f"{name}-d0")
    dgms.register_resource(
        f"{name}-d0-disk", f"{name}-d0",
        PhysicalStorageResource(f"{name}-d0-disk-1", StorageClass.DISK,
                                100 * GB))
    admin = dgms.register_user("admin", f"{name}-d0")
    scenario.federation.add_zone(name, dgms)
    dgms.create_collection(admin, "/data", parents=True)
    return dgms, admin


@pytest.mark.parametrize("sync_period_s", [4.0, None])
def test_zone_federated_after_attach_is_indexed(sync_period_s):
    scenario = federation_scenario(n_zones=2, objects_per_zone=2,
                                   sync_period_s=sync_period_s)
    rls = scenario.rls
    dgms, admin = _late_zone(scenario, "z9")
    assert rls.zone_names() == ["z0", "z1", "z9"]
    assert rls.lrc("z9").dgms is dgms
    # Its digests are published at join, like the attach-time zones'.
    assert all("z9" in shard for shard in rls.index._shards)
    if sync_period_s is None:
        assert "z9" not in rls.syncers
    else:
        # Same sync mode as the zones present at attach.
        syncer = rls.syncers["z9"]
        reference = rls.syncers["z0"]
        assert (syncer.period_s, syncer.staleness_bound_s) == (
            reference.period_s, reference.staleness_bound_s)

    def ingest():
        obj = yield dgms.put(admin, "/data/late.dat", 2 * MB, "z9-d0-disk")
        return obj

    obj = scenario.run(ingest())
    # Past the staleness bound, without an explicit flush.
    scenario.env.run(until=scenario.env.now + 100.0)
    result = rls.locate(obj.guid)
    assert result.found
    assert {loc.zone for loc in result.locations} == {"z9"}


# -- the federated namespace router ------------------------------------------


def test_federated_namespace_routes_by_zone_prefix():
    scenario = federation_scenario(seed=0)
    namespace = scenario.namespace
    # Plain paths resolve in the default zone (z0).
    plain = namespace.resolve_object("/data/obj-0000.dat")
    assert plain.guid.startswith("guid-z0-")
    routed = namespace.resolve_object("z2:/data/obj-0000.dat")
    assert routed.guid.startswith("guid-z2-")
    assert namespace.qualify("/data/obj-0000.dat") == "z0:/data/obj-0000.dat"
    assert namespace.zone_of("z1:/data") is scenario.zones["z1"]
    assert namespace.exists("z1:/data/obj-0000.dat")
    assert not namespace.exists("ghost:/data/obj-0000.dat")
    assert not namespace.exists("z1:/data/missing.dat")


def test_zones_holding_reflects_cross_zone_copies():
    scenario = federation_scenario(seed=0, sync_period_s=None)
    obj = scenario.namespace.resolve_object("/data/obj-0000.dat")
    assert scenario.namespace.zones_holding(obj.guid) == ["z0"]

    def copy():
        copied = yield scenario.federation.cross_zone_copy(
            scenario.admins["z1"], "z0", "/data/obj-0000.dat",
            "z1", "/data/obj-0000-copy.dat", "z1-d0-disk")
        return copied

    copied = scenario.run(copy())
    assert copied.guid == obj.guid   # same logical object, new zone
    assert scenario.namespace.zones_holding(obj.guid) == ["z0", "z1"]


# -- placement policies ------------------------------------------------------


def test_local_first_prefers_the_destination_zone():
    scenario = federation_scenario(seed=0)
    locations = [location("z2"), location("z0")]
    ranked = rank_source_zones(scenario.federation, locations, "z2",
                               policy="local-first")
    assert ranked[0] == "z2"
    with pytest.raises(FederationError):
        rank_source_zones(scenario.federation, locations, "z2",
                          policy="by-vibes")


def test_bridge_cost_aware_reranks_under_degradation():
    scenario = federation_scenario(seed=0)
    federation = scenario.federation
    locations = [location("z0"), location("z1")]
    nbytes = 64 * MB
    baseline = rank_source_zones(federation, locations, "z2",
                                 nbytes=nbytes, policy="bridge-cost-aware")
    best = baseline[0]
    # Degrade the best source's bridge hard; the ranking must flip for
    # exactly the degradation window.
    bridge = federation.bridge(best, "z2")
    bridge.degrade(0.01)
    degraded = rank_source_zones(federation, locations, "z2",
                                 nbytes=nbytes, policy="bridge-cost-aware")
    assert degraded[0] != best
    bridge.restore(0.01)
    assert rank_source_zones(federation, locations, "z2", nbytes=nbytes,
                             policy="bridge-cost-aware") == baseline


def test_select_source_zone_excludes_the_destination():
    scenario = federation_scenario(seed=0, sync_period_s=None)
    obj = scenario.namespace.resolve_object("/data/obj-0000.dat")
    assert select_source_zone(scenario.federation, obj.guid, "z1") == "z0"
    # Only the destination holds it: nothing to copy from.
    assert select_source_zone(scenario.federation, obj.guid, "z0") is None


def test_spread_zones_prefers_zones_not_yet_holding():
    scenario = federation_scenario(seed=0)
    obj = scenario.namespace.resolve_object("/data/obj-0000.dat")
    spread = spread_zones(scenario.federation, obj.guid, 2)
    assert len(spread) == 2
    assert "z0" not in spread   # z0 already holds it
    assert spread_zones(scenario.federation, obj.guid, 5) == \
        ["z1", "z2", "z0"]
    with pytest.raises(FederationError):
        spread_zones(scenario.federation, obj.guid, -1)


def test_cross_zone_copy_by_guid_places_and_preserves_identity():
    scenario = federation_scenario(seed=0, sync_period_s=None)
    obj = scenario.namespace.resolve_object("z1:/data/obj-0001.dat")

    def copy():
        copied = yield cross_zone_copy_by_guid(
            scenario.federation, scenario.admins["z2"], obj.guid,
            "z2", "/data/pulled.dat", "z2-d0-disk")
        return copied

    copied = scenario.run(copy())
    assert copied.guid == obj.guid
    assert scenario.zones["z2"].namespace.exists("/data/pulled.dat")
    with pytest.raises(FederationError):
        cross_zone_copy_by_guid(
            scenario.federation, scenario.admins["z0"],
            "guid-unknown-00000000", "z0", "/data/x.dat", "z0-d0-disk")
