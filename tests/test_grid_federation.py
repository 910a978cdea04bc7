"""Tests for zone federation (multiple datagrids)."""

import pytest

from repro.errors import (
    FederationError,
    NamespaceError,
    ReplicaError,
    ResourceOffline,
)
from repro.faults import (
    FaultDriver,
    FaultSchedule,
    RetryPolicy,
    attach_recovery,
)
from repro.grid import (
    DataGridManagementSystem,
    Federation,
    Permission,
    ReplicaState,
    qualify,
    split_zone_path,
    validate_zone_name,
)
from repro.network import Topology
from repro.sim import Environment
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass


def make_zone(env, domain, resource_name):
    topo = Topology()
    topo.add_domain(domain)
    dgms = DataGridManagementSystem(env, topo, name=domain)
    dgms.register_domain(domain)
    disk = PhysicalStorageResource(resource_name, StorageClass.DISK, 100 * GB)
    dgms.register_resource(f"{domain}-disk", domain, disk)
    user = dgms.register_user("admin", domain)
    dgms.create_collection(user, "/data", parents=True)
    return dgms, user, disk


def make_mesh_zone(env, name, domains):
    """A zone spanning several domains, one disk each, fully meshed."""
    topo = Topology.full_mesh(domains, latency_s=0.01,
                              bandwidth_bps=100 * MB)
    dgms = DataGridManagementSystem(env, topo, name=name)
    for domain in domains:
        dgms.register_domain(domain)
        disk = PhysicalStorageResource(f"{domain}-disk-1", StorageClass.DISK,
                                       100 * GB)
        dgms.register_resource(f"{domain}-disk", domain, disk)
    user = dgms.register_user("admin", domains[0])
    dgms.create_collection(user, "/data", parents=True)
    return dgms, user


def test_split_zone_path():
    assert split_zone_path("ukgrid:/data/x") == ("ukgrid", "/data/x")
    assert split_zone_path("/data/x") == (None, "/data/x")
    with pytest.raises(FederationError):
        split_zone_path("ukgrid:data/x")


def test_split_zone_path_rejects_malformed_names():
    # Empty zone part.
    with pytest.raises(FederationError, match="empty"):
        split_zone_path(":/data/x")
    # Separator characters embedded in the zone part.
    with pytest.raises(FederationError, match="cannot contain"):
        split_zone_path("a/b:/data/x")
    # The second ':' makes the path part relative ("b:/x").
    with pytest.raises(FederationError, match="malformed"):
        split_zone_path("a:b:/x")
    # A ':' later in a plain absolute path is not a zone separator.
    assert split_zone_path("/data/with:colon") == (None, "/data/with:colon")


def test_qualify_and_split_round_trip():
    for name in ["uk:/data/x", "/data/x", "z0:/a/b/c.dat", "/x"]:
        assert qualify(*split_zone_path(name)) == name
    for zone, path in [("uk", "/data/x"), (None, "/plain"), ("z9", "/")]:
        assert split_zone_path(qualify(zone, path)) == (zone, path)
    with pytest.raises(FederationError):
        qualify("uk", "relative/path")
    with pytest.raises(FederationError):
        qualify("a:b", "/x")


def test_validate_zone_name():
    assert validate_zone_name("ukgrid") == "ukgrid"
    for bad in ["", "a:b", "a/b", ":/"]:
        with pytest.raises(FederationError):
            validate_zone_name(bad)


def test_add_and_lookup_zones():
    env = Environment()
    fed = Federation(env)
    us, _, _ = make_zone(env, "sdsc", "us-disk")
    fed.add_zone("usgrid", us)
    assert fed.zone("usgrid") is us
    assert fed.zones() == ["usgrid"]
    with pytest.raises(FederationError):
        fed.add_zone("usgrid", us)
    with pytest.raises(FederationError):
        fed.zone("ghost")


def test_resolve_with_and_without_zone_prefix():
    env = Environment()
    fed = Federation(env)
    us, user, _ = make_zone(env, "sdsc", "us-disk")
    fed.add_zone("usgrid", us)
    dgms, node = fed.resolve("usgrid", "/data")
    assert dgms is us and node.path == "/data"
    dgms, node = fed.resolve("usgrid", "usgrid:/data")
    assert dgms is us


def test_cross_zone_copy_moves_object_and_metadata():
    env = Environment()
    fed = Federation(env)
    us, us_admin, us_disk = make_zone(env, "sdsc", "us-disk")
    uk, uk_admin, uk_disk = make_zone(env, "ral", "uk-disk")
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)

    def scenario():
        yield us.put(us_admin, "/data/obs.dat", 10 * MB, "sdsc-disk",
                     metadata={"experiment": "cms"})
        # Domain autonomy: the UK admin must be granted access explicitly.
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        copied = yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/obs.dat", "ral-disk")
        return copied

    copied = env.run_process(scenario())
    assert uk.namespace.exists("/data/obs.dat")
    assert copied.metadata.get("experiment") == "cms"
    assert copied.metadata.get("federation:source") == "usgrid:/data/obs.dat"
    assert uk_disk.used_bytes == 10 * MB
    # Source object is untouched.
    assert us.namespace.resolve_object("/data/obs.dat").size == 10 * MB
    assert env.now > 0.0


def test_add_zone_sets_guid_authority_and_refuses_double_federation():
    env = Environment()
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    fed = Federation(env)
    fed.add_zone("usgrid", us)
    assert us.namespace.guid_authority == "usgrid"

    def scenario():
        obj = yield us.put(us_admin, "/data/a.dat", MB, "sdsc-disk")
        return obj

    obj = env.run_process(scenario())
    assert obj.guid.startswith("guid-usgrid-")
    # One datagrid cannot serve two federations (or two zone names).
    other = Federation(env)
    with pytest.raises(FederationError, match="already federated"):
        other.add_zone("usgrid2", us)


def test_cross_zone_copy_preserves_the_guid():
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)

    def scenario():
        obj = yield us.put(us_admin, "/data/obs.dat", MB, "sdsc-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        copied = yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/obs.dat", "ral-disk")
        return obj, copied

    obj, copied = env.run_process(scenario())
    # The copy is a replica of the *same* logical object in another zone.
    assert copied.guid == obj.guid
    assert copied is not obj


def test_duplicate_guid_in_one_namespace_is_refused():
    env = Environment()
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    Federation(env).add_zone("usgrid", us)

    def scenario():
        obj = yield us.put(us_admin, "/data/a.dat", MB, "sdsc-disk")
        with pytest.raises(NamespaceError, match="already exists"):
            yield us.put(us_admin, "/data/b.dat", MB, "sdsc-disk",
                         guid=obj.guid)

    env.run_process(scenario())


# -- the resilient copy read path --------------------------------------------


def test_copy_fails_over_between_source_replicas():
    # Regression for the old read path, which always read the first good
    # replica: with that replica's resource down and recovery attached,
    # the copy must fail over to the alternate replica and complete.
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc", "ucsd"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    recovery = attach_recovery(
        us, policy=RetryPolicy(max_attempts=6, base_delay=0.5))
    mechanics = FaultDriver(us, FaultSchedule())

    def scenario():
        yield us.put(us_admin, "/data/obs.dat", 4 * MB, "sdsc-disk")
        yield us.replicate(us_admin, "/data/obs.dat", "ucsd-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        # The anchor (first) replica's resource goes dark; the read leg
        # must fail over to the ucsd replica instead of failing.
        mechanics.hold_storage("sdsc-disk-1")
        copied = yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/pulled.dat", "ral-disk")
        return copied

    copied = env.run_process(scenario())
    assert uk.namespace.exists("/data/pulled.dat")
    assert copied.size == 4 * MB
    assert fed.copies_completed == 1 and fed.copies_failed == 0
    assert recovery.count("failover") >= 1


def test_copy_retries_through_a_destination_outage():
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    recovery = attach_recovery(
        uk, policy=RetryPolicy(max_attempts=8, base_delay=0.5))
    mechanics = FaultDriver(uk, FaultSchedule())

    def scenario():
        yield us.put(us_admin, "/data/obs.dat", 4 * MB, "sdsc-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        mechanics.hold_storage("ral-disk-1")
        # The outage ends mid-retry; the copy's backoff loop outwaits it.
        timer = env.timeout(6.0)
        timer.callbacks.append(
            lambda _event: mechanics.release_storage("ral-disk-1"))
        copied = yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/obs.dat", "ral-disk")
        return copied

    env.run_process(scenario())
    assert uk.namespace.exists("/data/obs.dat")
    assert fed.copies_completed == 1 and fed.copies_failed == 0
    assert recovery.count("federation-failover") >= 1


def test_a_copy_qualifies_its_names_once_however_often_it_fails_over(
        monkeypatch):
    import repro.grid.federation as federation_module

    calls = []

    def counting_qualify(zone, path):
        calls.append((zone, path))
        return qualify(zone, path)

    monkeypatch.setattr(federation_module, "qualify", counting_qualify)
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    recovery = attach_recovery(
        uk, policy=RetryPolicy(max_attempts=8, base_delay=0.5))
    notes = []
    note = recovery.note
    monkeypatch.setattr(recovery, "note", lambda kind, **fields: (
        notes.append((kind, fields)), note(kind, **fields)))
    mechanics = FaultDriver(uk, FaultSchedule())

    def scenario():
        yield us.put(us_admin, "/data/obs.dat", 4 * MB, "sdsc-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        mechanics.hold_storage("ral-disk-1")
        timer = env.timeout(6.0)
        timer.callbacks.append(
            lambda _event: mechanics.release_storage("ral-disk-1"))
        calls.clear()
        copied = yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/obs.dat", "ral-disk")
        return copied

    copied = env.run_process(scenario())
    failovers = [fields for kind, fields in notes
                 if kind == "federation-failover"]
    assert len(failovers) >= 2
    assert calls == [("usgrid", "/data/obs.dat"), ("ukgrid", "/data/obs.dat")]
    assert {(f["src"], f["dst"]) for f in failovers} == {
        ("usgrid:/data/obs.dat", "ukgrid:/data/obs.dat")}
    assert copied.metadata.get("federation:source") == "usgrid:/data/obs.dat"


def test_a_malformed_destination_path_raises_at_the_first_failover():
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    recovery = attach_recovery(
        uk, policy=RetryPolicy(max_attempts=8, base_delay=0.5))
    source_mechanics = FaultDriver(us, FaultSchedule())

    def copy(dst_path):
        yield fed.cross_zone_copy(uk_admin, "usgrid", "/data/obs.dat",
                                  "ukgrid", dst_path, "ral-disk")

    def scenario():
        yield us.put(us_admin, "/data/obs.dat", 4 * MB, "sdsc-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        # Without a failover the put refuses the path itself.
        with pytest.raises(NamespaceError):
            yield from copy("data/obs.dat")
        assert recovery.count("federation-failover") == 0
        # A failed read fails over first, and the failover names the
        # destination.
        source_mechanics.hold_storage("sdsc-disk-1")
        yield from copy("data/obs.dat")

    with pytest.raises(FederationError, match="must be absolute"):
        env.run_process(scenario())
    assert recovery.count("federation-failover") == 0
    assert fed.copies_failed == 1


def test_copy_without_recovery_fails_terminally_not_silently():
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    mechanics = FaultDriver(uk, FaultSchedule())

    def scenario():
        yield us.put(us_admin, "/data/obs.dat", 4 * MB, "sdsc-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        mechanics.hold_storage("ral-disk-1")
        yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/obs.dat", "ral-disk")

    with pytest.raises(ResourceOffline):
        env.run_process(scenario())
    assert fed.copies_completed == 0 and fed.copies_failed == 1


def test_copy_with_no_good_replicas_raises_replica_error():
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    attach_recovery(uk)   # recovery does not help: nothing to read

    def scenario():
        obj = yield us.put(us_admin, "/data/obs.dat", MB, "sdsc-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        for replica in obj.replicas:
            replica.state = ReplicaState.STALE
        yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/obs.dat", "ral-disk")

    with pytest.raises(ReplicaError, match="no good replicas"):
        env.run_process(scenario())
    assert fed.copies_failed == 1


# -- the bridge registry ------------------------------------------------------


def test_registered_bridge_paces_the_copy():
    env = Environment()
    fed = Federation(env)
    us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
    uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    bridge = fed.connect_zones("usgrid", "ukgrid",
                               bandwidth_bps=1 * MB, latency_s=1.0)

    def scenario():
        yield us.put(us_admin, "/data/obs.dat", 10 * MB, "sdsc-disk")
        us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                 Permission.READ)
        start = env.now
        yield fed.cross_zone_copy(
            uk_admin, "usgrid", "/data/obs.dat",
            "ukgrid", "/data/obs.dat", "ral-disk")
        return env.now - start

    elapsed = env.run_process(scenario())
    # The hop rides the registered 1 MB/s bridge, not the 10 MB/s ad-hoc
    # default: at least latency + size/bandwidth = 11 s.
    assert elapsed >= bridge.transfer_time(10 * MB) == pytest.approx(11.0)


def test_unbridged_copy_rides_a_stock_bridge():
    # Without a registered bridge the hop rides an ad-hoc one of 10 MiB/s
    # and 0.2 s: the copy takes exactly as long as over a bridge
    # registered with those numbers.
    def copy_time(bridged):
        env = Environment()
        fed = Federation(env)
        us, us_admin = make_mesh_zone(env, "us", ["sdsc"])
        uk, uk_admin = make_mesh_zone(env, "uk", ["ral"])
        fed.add_zone("usgrid", us)
        fed.add_zone("ukgrid", uk)
        if bridged:
            fed.connect_zones("usgrid", "ukgrid",
                              bandwidth_bps=10 * 1024 * 1024, latency_s=0.2)

        def scenario():
            yield us.put(us_admin, "/data/obs.dat", 10 * MB, "sdsc-disk")
            us.grant(us_admin, "/data/obs.dat", uk_admin.qualified_name,
                     Permission.READ)
            start = env.now
            yield fed.cross_zone_copy(
                uk_admin, "usgrid", "/data/obs.dat",
                "ukgrid", "/data/obs.dat", "ral-disk")
            return env.now - start

        elapsed = env.run_process(scenario())
        assert (fed.bridge("usgrid", "ukgrid") is not None) == bridged
        return elapsed

    unbridged = copy_time(bridged=False)
    assert unbridged > 0.2
    assert unbridged == copy_time(bridged=True)


def test_bridge_registry_and_costs():
    env = Environment()
    fed = Federation(env)
    us, _ = make_mesh_zone(env, "us", ["sdsc"])
    uk, _ = make_mesh_zone(env, "uk", ["ral"])
    fed.add_zone("usgrid", us)
    fed.add_zone("ukgrid", uk)
    bridge = fed.connect_zones("usgrid", "ukgrid",
                               bandwidth_bps=10 * MB, latency_s=0.5)
    assert fed.bridge("ukgrid", "usgrid") is bridge   # order-insensitive
    assert fed.bridges() == [bridge]
    with pytest.raises(FederationError, match="already exists"):
        fed.connect_zones("ukgrid", "usgrid")
    with pytest.raises(FederationError, match="unknown zone"):
        fed.connect_zones("usgrid", "ghost")
    with pytest.raises(FederationError, match="distinct zones"):
        fed.connect_zones("usgrid", "usgrid")

    cost = fed.bridge_cost("usgrid", "ukgrid", 10 * MB)
    assert cost == pytest.approx(1.5)
    assert fed.bridge_cost("usgrid", "usgrid", 10 * MB) == 0.0
    assert fed.bridge_cost("usgrid", "unbridged", 10 * MB) == float("inf")
    bridge.degrade(0.5)
    assert fed.bridge_cost("usgrid", "ukgrid", 10 * MB) > cost
    bridge.restore(0.5)
    assert fed.bridge_cost("usgrid", "ukgrid", 10 * MB) == pytest.approx(cost)


def test_locate_without_rls_is_a_clear_error():
    env = Environment()
    fed = Federation(env)
    with pytest.raises(FederationError, match="no replica location service"):
        fed.locate("guid-x-00000001")
