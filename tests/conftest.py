"""Shared fixtures: a small standard datagrid used across test modules,
and a switch for the seed farm's execution path."""

import pytest

from repro.grid import DataGridManagementSystem, DomainRole, Permission
from repro.network import Topology
from repro.sim import Environment
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass


class SmallGrid:
    """A two-domain datagrid: SDSC (disk + tape) and UCSD (disk).

    Users: ``alice@sdsc`` (owns /home/alice) and ``bob@ucsd``.
    Logical resources: ``sdsc-disk``, ``sdsc-tape``, ``ucsd-disk``.
    """

    def __init__(self):
        self.env = Environment()
        topo = Topology()
        topo.connect("sdsc", "ucsd", latency_s=0.01, bandwidth_bps=100 * MB)
        self.dgms = DataGridManagementSystem(self.env, topo)
        self.dgms.register_domain("sdsc", DomainRole.PRODUCER)
        self.dgms.register_domain("ucsd", DomainRole.PARTICIPANT)
        self.sdsc_disk = PhysicalStorageResource(
            "sdsc-disk-1", StorageClass.DISK, 100 * GB)
        self.sdsc_tape = PhysicalStorageResource(
            "sdsc-tape-1", StorageClass.ARCHIVE, 1000 * GB)
        self.ucsd_disk = PhysicalStorageResource(
            "ucsd-disk-1", StorageClass.DISK, 100 * GB)
        self.dgms.register_resource("sdsc-disk", "sdsc", self.sdsc_disk)
        self.dgms.register_resource("sdsc-tape", "sdsc", self.sdsc_tape)
        self.dgms.register_resource("ucsd-disk", "ucsd", self.ucsd_disk)
        self.alice = self.dgms.register_user("alice", "sdsc")
        self.bob = self.dgms.register_user("bob", "ucsd")
        self.dgms.create_collection(self.alice, "/home", parents=True)
        self.dgms.create_collection(self.alice, "/home/alice")
        # /home is shared: anyone in the grid may create under it in tests.
        self.dgms.namespace.resolve("/home").acl.grant(
            self.bob.qualified_name, Permission.WRITE)

    def run(self, generator):
        """Run a sim process to completion and return its value."""
        return self.env.run_process(generator)

    def put_file(self, path, size=MB, user=None, resource="sdsc-disk", **kw):
        """Synchronously ingest one object (helper for tests)."""
        user = user or self.alice

        def _go():
            obj = yield self.dgms.put(user, path, size, resource, **kw)
            return obj

        return self.run(_go())


@pytest.fixture
def grid():
    return SmallGrid()


class DfMSGrid(SmallGrid):
    """SmallGrid plus compute infrastructure and a DfMS server.

    Compute: ``sdsc-compute`` (8 cores, fast) and ``ucsd-compute``
    (4 cores, slower). The server uses greedy late-binding placement.
    """

    def __init__(self):
        super().__init__()
        from repro.dfms import (
            ComputeResource,
            DfMSServer,
            DomainDescription,
            InfrastructureDescription,
            SLA,
            StorageOffer,
        )

        infrastructure = InfrastructureDescription()
        self.sdsc_compute = ComputeResource("sdsc-compute", "sdsc",
                                            cores=8, speed_factor=2.0)
        self.ucsd_compute = ComputeResource("ucsd-compute", "ucsd",
                                            cores=4, speed_factor=1.0)
        infrastructure.add_domain(DomainDescription(
            name="sdsc",
            compute=[self.sdsc_compute],
            storage=[StorageOffer("sdsc-disk", "disk"),
                     StorageOffer("sdsc-tape", "archive")],
            sla=SLA()))
        infrastructure.add_domain(DomainDescription(
            name="ucsd",
            compute=[self.ucsd_compute],
            storage=[StorageOffer("ucsd-disk", "disk")],
            sla=SLA()))
        self.infrastructure = infrastructure
        self.server = DfMSServer(self.env, self.dgms,
                                 infrastructure=infrastructure)

    def submit_sync(self, flow, user=None, vo="test-vo"):
        """Submit a flow synchronously; return the final response."""
        from repro.dgl import DataGridRequest

        user = user or self.alice
        request = DataGridRequest(user=user.qualified_name,
                                  virtual_organization=vo, body=flow)

        def _go():
            response = yield self.env.process(
                self.server.submit_sync(request))
            return response

        return self.run(_go())


@pytest.fixture
def dfms():
    return DfMSGrid()


@pytest.fixture
def farm_cores(monkeypatch):
    """Pretend the host grants ``n`` cores and that every sweep pays for a
    pool: after ``farm_cores(1)`` :func:`repro.farm.run_farm` runs inline,
    and after ``farm_cores(2)`` it sends the items after the first to two
    worker processes however cheap they are. Call again to switch."""
    from repro.farm import runner

    def force(cores: int) -> None:
        monkeypatch.setattr(runner, "POOL_PAYBACK_S", 0.0)
        monkeypatch.setattr(runner, "default_jobs", lambda: cores)

    return force
