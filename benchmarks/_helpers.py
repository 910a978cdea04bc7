"""Shared deployment builders and result plumbing for the benchmark suite."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Sequence

from repro.dfms import (
    SLA,
    ComputeResource,
    DfMSServer,
    DomainDescription,
    InfrastructureDescription,
    StorageOffer,
)
from repro.dgl import DataGridRequest
from repro.grid import DataGridManagementSystem, Permission
from repro.network import Topology
from repro.sim import Environment
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass

#: Pinned sweep fingerprint files, each with the seed count it covers.
PINNED_SWEEPS = {"chaos_sweep_baseline.sha256": 20,
                 "federation_chaos_baseline.sha256": 10}


def env_int(name: str, default: int) -> int:
    """An integer knob from the environment (unset or empty = default)."""
    raw = os.environ.get(name, "")
    return int(raw) if raw else default


def merge_results(path: Path, **sections) -> None:
    """Merge ``sections`` into the JSON result file at ``path``."""
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(sections)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def check_pinned_sweep(fingerprint: str, seeds: Sequence[int],
                       baseline: str, what: str) -> Optional[bool]:
    """Assert a sweep fingerprint equals its pinned ``baseline`` file.

    Returns True on a match, or None when ``seeds`` is not the pinned
    seed list (a shrunk smoke sweep has nothing to compare against).
    """
    if list(seeds) != list(range(PINNED_SWEEPS[baseline])):
        return None
    pinned = (Path(__file__).parent / baseline).read_text().strip()
    assert fingerprint == pinned, (
        f"{what} drifted from {baseline} "
        f"({fingerprint[:12]} vs {pinned[:12]})")
    return True


class BenchGrid:
    """A parameterizable multi-domain datagrid with compute and a DfMS.

    ``n_domains`` domains named ``d0..dN`` in a full mesh; each domain has
    one disk (plus tape at ``d0``) and one compute resource. User ``admin``
    at ``d0`` owns ``/data``.
    """

    def __init__(self, n_domains: int = 2, cores_per_domain: int = 4,
                 wan_bandwidth: float = 50 * MB,
                 heterogeneous: bool = False,
                 placement_policy: str = "greedy",
                 placement_streams=None) -> None:
        self.env = Environment()
        domains = [f"d{index}" for index in range(n_domains)]
        topology = (Topology.full_mesh(domains, 0.01, wan_bandwidth)
                    if n_domains > 1 else Topology())
        if n_domains == 1:
            topology.add_domain("d0")
        self.dgms = DataGridManagementSystem(self.env, topology)
        infrastructure = InfrastructureDescription()
        self.disks: List[PhysicalStorageResource] = []
        self.computes: List[ComputeResource] = []
        for index, domain in enumerate(domains):
            self.dgms.register_domain(domain)
            disk = PhysicalStorageResource(f"{domain}-disk-1",
                                           StorageClass.DISK, 1000 * GB)
            self.disks.append(disk)
            self.dgms.register_resource(f"{domain}-disk", domain, disk)
            speed = 1.0 + index if heterogeneous else 1.0
            compute = ComputeResource(f"{domain}-compute", domain,
                                      cores=cores_per_domain,
                                      speed_factor=speed)
            self.computes.append(compute)
            infrastructure.add_domain(DomainDescription(
                name=domain, compute=[compute],
                storage=[StorageOffer(f"{domain}-disk", "disk")],
                sla=SLA()))
        tape = PhysicalStorageResource("d0-tape-1", StorageClass.ARCHIVE,
                                       100_000 * GB)
        self.tape = tape
        self.dgms.register_resource("d0-tape", "d0", tape)
        self.admin = self.dgms.register_user("admin", "d0")
        self.dgms.create_collection(self.admin, "/data", parents=True)
        self.infrastructure = infrastructure
        self.server = DfMSServer(self.env, self.dgms,
                                 infrastructure=infrastructure,
                                 placement_policy=placement_policy,
                                 streams=placement_streams)

    def run(self, generator):
        return self.env.run_process(generator)

    def request(self, flow, asynchronous=False) -> DataGridRequest:
        return DataGridRequest(user=self.admin.qualified_name,
                               virtual_organization="bench", body=flow,
                               asynchronous=asynchronous)

    def submit_sync(self, flow):
        """Run a flow to completion; returns the final response."""

        def go():
            response = yield self.env.process(
                self.server.submit_sync(self.request(flow)))
            return response

        response = self.run(go())
        if hasattr(response.body, "state"):
            assert response.body.state.value == "completed", (
                getattr(response.body, "error", None))
        return response

    def populate(self, count: int, size: float = MB,
                 collection: str = "/data", resource: str = "d0-disk",
                 prefix: str = "obj") -> List[str]:
        """Ingest ``count`` objects synchronously; returns their paths."""
        paths = []

        def go():
            for index in range(count):
                path = f"{collection}/{prefix}-{index:05d}.dat"
                yield self.dgms.put(self.admin, path, size, resource)
                paths.append(path)

        self.run(go())
        return paths
