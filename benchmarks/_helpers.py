"""Shared deployment builders and measurement plumbing for the benchmarks.

E18–E25 each declare a full and a smoke shape side by side with
:func:`shape`; ``BENCH_SMOKE=1`` selects the smoke shapes (what CI
runs) and is the only environment variable a benchmark reads. Host-time
samples are taken with :func:`timed`, which parks the garbage collector,
or the interleaved best-of loops built on it, and every ``BENCH_*.json``
is written by :func:`merge_results`.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.measure import _git_sha
from repro.dfms import (
    SLA,
    ComputeResource,
    DfMSServer,
    DomainDescription,
    InfrastructureDescription,
    StorageOffer,
)
from repro.dgl import DataGridRequest
from repro.grid import DataGridManagementSystem
from repro.network import Topology
from repro.sim import Environment
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Pinned sweep fingerprint files, each with the seed count it covers.
PINNED_SWEEPS = {"chaos_sweep_baseline.sha256": 20,
                 "federation_chaos_baseline.sha256": 10}

#: Layout version of the ``envelope`` every result file carries.
SCHEMA = "datagridflow-bench/1"

#: True under ``BENCH_SMOKE=1``: run the small shapes, where only the
#: gates that hold at any size arm.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Times :func:`least_overhead` re-measures before giving up.
MAX_ATTEMPTS = 3


def shape(full, smoke):
    """A benchmark's ``smoke`` shape under ``BENCH_SMOKE=1``, else ``full``."""
    return smoke if SMOKE else full


def timed(run: Callable[[], object]) -> float:
    """Wall seconds of one ``run()``, with the garbage collector parked.

    The collector is off for the timed region and left as it was found.
    No collection runs here: with a large heap alive one costs more than
    most samples, so loops that want a clean heap collect between them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def interleaved_best(modes: Sequence[Tuple[str, Callable[[], float]]],
                     repeats: int) -> Dict[str, float]:
    """Best of ``repeats`` seconds per ``(name, measure)`` mode.

    Wall clock drifts over a run of back-to-back samples (frequency
    scaling, allocator state), so the modes alternate within every round
    rather than each filling its own block. One warm-up round runs first
    and is discarded; the heap is collected before every sample.
    """
    for _, measure in modes:
        measure()
    samples: Dict[str, List[float]] = {name: [] for name, _ in modes}
    for _ in range(repeats):
        for name, measure in modes:
            gc.collect()
            samples[name].append(measure())
    return {name: min(times) for name, times in samples.items()}


def least_overhead(modes: Sequence[Tuple[str, Callable[[], float]]],
                   repeats: int, base: str, probe: str,
                   gate_pct: float) -> Tuple[float, Dict[str, float]]:
    """:func:`interleaved_best`, re-measured up to :data:`MAX_ATTEMPTS`
    times until mode ``probe`` costs under ``gate_pct`` percent over
    mode ``base``.

    A process occasionally draws an allocator layout that taxes one mode
    for its whole lifetime, which no repetition inside one measurement
    averages away. Returns ``(overhead_pct, best)`` of the attempt with
    the least overhead.
    """
    attempts = []
    for _ in range(MAX_ATTEMPTS):
        best = interleaved_best(modes, repeats)
        overhead_pct = (best[probe] - best[base]) / best[base] * 100
        attempts.append((overhead_pct, best))
        if overhead_pct < gate_pct:
            break
    return min(attempts, key=lambda attempt: attempt[0])


def _dirty() -> bool:
    """True when a tracked file other than a ``BENCH_*.json`` differs from
    HEAD, i.e. the results come from code no commit holds yet; False when
    that cannot be told (no git, or not a checkout)."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", ".",
             ":(exclude)BENCH_*.json"], cwd=REPO_ROOT, capture_output=True)
    except OSError:
        return False
    return diff.returncode == 1


def merge_results(path: Path, **sections) -> None:
    """Merge ``sections`` into the JSON result file at ``path``.

    The file's ``envelope`` records what produced it: the schema, Python
    version, usable cores, git commit, whether the shapes were smoke, and
    ``"dirty": true`` when the tree differed from that commit.
    """
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(sections)
    payload["envelope"] = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "smoke": SMOKE,
    }
    if _dirty():
        payload["envelope"]["dirty"] = True
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
