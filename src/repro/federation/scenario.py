"""A ready-to-run federated deployment for tests, chaos, and benchmarks.

The shape mirrors the SRB zone-federation deployments (§2.1): several
autonomous zones — each a full datagrid with its own domains, storage,
users, and network — joined by a full mesh of bridges with deliberately
non-uniform capacities (so bridge-cost-aware placement has a signal),
plus the two-tier replica location service with seeded bounded-staleness
digest sync.

Everything is derived deterministically from ``seed`` and the shape
parameters; two builds with the same arguments are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.federation.namespace import FederatedNamespace
from repro.federation.rls import ReplicaLocationService, attach_rls
from repro.grid.acl import Permission
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.federation import Federation
from repro.grid.users import User
from repro.network.topology import Topology
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass

__all__ = ["FederationScenario", "federation_scenario", "zone_name"]


def zone_name(index: int) -> str:
    """The canonical scenario zone name for ``index`` (``z0``, ``z1``…)."""
    return f"z{index}"


@dataclass
class FederationScenario:
    """A built federation plus handles to everything the harness needs."""

    env: Environment
    federation: Federation
    namespace: FederatedNamespace
    rls: ReplicaLocationService
    streams: RandomStreams
    #: Zone name → that zone's datagrid / admin user / object paths.
    zones: Dict[str, DataGridManagementSystem] = field(default_factory=dict)
    admins: Dict[str, User] = field(default_factory=dict)
    paths: Dict[str, List[str]] = field(default_factory=dict)

    def run(self, generator):
        """Run a sim process to completion and return its value."""
        return self.env.run_process(generator)


def federation_scenario(n_zones: int = 3, domains_per_zone: int = 2,
                        objects_per_zone: int = 4,
                        object_size: float = 8 * MB, seed: int = 0,
                        sync_period_s: float = 4.0, n_shards: int = 16
                        ) -> FederationScenario:
    """Build an ``n_zones``-zone federation on one shared kernel.

    Each zone ``z<i>`` is a full-mesh datagrid of domains ``z<i>-d<j>``
    with one disk per domain, an admin homed at ``d0``, and
    ``objects_per_zone`` objects under ``/data`` spread across the
    domains' disks (plus one intra-zone replica each in the next domain
    when the zone has more than one — so single-resource faults have
    somewhere to fail over to). Zones are bridged all-to-all with deterministic,
    deliberately non-uniform bandwidth/latency; the RLS attaches with a
    :class:`~repro.federation.sync.DigestSyncer` per zone at
    ``sync_period_s``.

    Objects are world-readable and ``/data`` world-writable in every
    zone — cross-zone copies act as the *destination* zone's admin, and
    domain autonomy is exercised by the explicit-grant federation tests,
    not the chaos harness.
    """
    if n_zones < 2:
        raise ValueError(f"a federation needs at least 2 zones: {n_zones}")
    if domains_per_zone < 1:
        raise ValueError(
            f"zones need at least 1 domain: {domains_per_zone}")
    env = Environment()
    streams = RandomStreams(seed)
    federation = Federation(env)
    scenario = FederationScenario(
        env=env, federation=federation, namespace=None, rls=None,
        streams=streams)

    for zone_index in range(n_zones):
        name = zone_name(zone_index)
        domains = [f"{name}-d{domain_index}"
                   for domain_index in range(domains_per_zone)]
        topology = (Topology.full_mesh(domains, latency_s=0.01,
                                       bandwidth_bps=100 * MB)
                    if len(domains) > 1 else Topology())
        dgms = DataGridManagementSystem(env, topology, name=name)
        for domain in domains:
            dgms.register_domain(domain)
            dgms.register_resource(
                f"{domain}-disk", domain,
                PhysicalStorageResource(f"{domain}-disk-1",
                                        StorageClass.DISK, 100 * GB))
        admin = dgms.register_user("admin", domains[0])
        dgms.create_collection(admin, "/data", parents=True)
        dgms.namespace.resolve("/data").acl.grant("*", Permission.WRITE)
        federation.add_zone(name, dgms)
        scenario.zones[name] = dgms
        scenario.admins[name] = admin
        scenario.paths[name] = []

    # Bridges: all-to-all, with capacity/latency varying by zone-index
    # arithmetic so cost-aware placement has real differences to rank.
    for a_index in range(n_zones):
        for b_index in range(a_index + 1, n_zones):
            federation.connect_zones(
                zone_name(a_index), zone_name(b_index),
                bandwidth_bps=(8 + 4 * ((a_index + b_index) % 3)) * MB,
                latency_s=0.1 + 0.05 * ((a_index * b_index) % 3))

    def _populate():
        for zone_index in range(n_zones):
            name = zone_name(zone_index)
            dgms = scenario.zones[name]
            admin = scenario.admins[name]
            for object_index in range(objects_per_zone):
                domain = f"{name}-d{object_index % domains_per_zone}"
                path = f"/data/obj-{object_index:04d}.dat"
                obj = yield dgms.put(
                    admin, path, object_size, f"{domain}-disk",
                    metadata={"zone": name, "index": object_index})
                obj.acl.grant("*", Permission.READ)
                scenario.paths[name].append(path)
                if domains_per_zone > 1:
                    alternate = f"{name}-d{(object_index + 1) % domains_per_zone}"
                    yield dgms.replicate(admin, path, f"{alternate}-disk")

    env.run_process(_populate())

    # RLS after population: the attach publish covers the initial
    # objects, so staleness during a run comes only from new activity.
    scenario.rls = attach_rls(federation, n_shards=n_shards,
                              sync_period_s=sync_period_s, streams=streams)
    scenario.namespace = FederatedNamespace(federation, zone_name(0))
    return scenario
