"""Simulated physical storage resources.

A :class:`PhysicalStorageResource` stands in for one real storage system at
one administrative domain — a disk farm, a parallel filesystem, a tape silo.
The SRB model in the paper maps each such system into the datagrid's
*logical resource namespace* without changing it (§1); this class is the
"physical" side of that mapping. It tracks capacity, accounts allocations
per stored object, answers timing questions from its performance model, and
routes every operation through a failure injector.

Durations are returned as plain floats; the layer driving the simulation
(the DGMS / DfMS) turns them into virtual-time timeouts. Keeping this class
simulation-agnostic lets benchmarks also query costs analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import CapacityExceeded, ResourceOffline, StorageError
from repro.storage.failures import FailureInjector, NO_FAILURES
from repro.storage.models import MODEL_PRESETS, PerformanceModel, StorageClass

__all__ = ["PhysicalStorageResource", "StorageStats"]


@dataclass
class StorageStats:
    """Operation counters for one physical resource."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    busy_seconds: float = 0.0


class PhysicalStorageResource:
    """One physical storage system with capacity and timing behaviour."""

    def __init__(self, name: str, storage_class: StorageClass,
                 capacity_bytes: float,
                 model: Optional[PerformanceModel] = None,
                 failures: Optional[FailureInjector] = None,
                 channels: int = 0) -> None:
        if capacity_bytes <= 0:
            raise StorageError(f"capacity must be positive, got {capacity_bytes}")
        if channels < 0:
            raise StorageError(f"channels cannot be negative, got {channels}")
        self.name = name
        self.storage_class = storage_class
        self.capacity_bytes = float(capacity_bytes)
        self.model = model or MODEL_PRESETS[storage_class]
        self.failures = failures or NO_FAILURES
        #: Concurrent-I/O limit the driving layer (DGMS) enforces:
        #: 0 = unlimited; 1 models a single tape drive; N a disk array's
        #: channel count. Durations here stay per-operation; queueing for
        #: a channel happens in virtual time at the DGMS.
        self.channels = channels
        self.online = True
        self.stats = StorageStats()
        self._allocations: Dict[str, float] = {}
        #: Running ``sum(self._allocations.values())``; None = re-sum.
        self._used: Optional[float] = None

    # -- capacity -----------------------------------------------------------

    @property
    def used_bytes(self) -> float:
        """Bytes currently allocated: ``sum()`` over the allocations in
        insertion order, kept as a running total.

        On CPython 3.10/3.11 ``sum()`` over floats is a left fold in dict
        insertion order, and a new allocation goes to the end of the
        dict, so :meth:`write` extends the fold with one ``+=`` and the
        total is bit-identical to a fresh ``sum()``. (CI and every pinned
        baseline run 3.11; from 3.12 ``sum()`` compensates its rounding
        and may differ from the fold in the last bits.) A delete removes
        a term from the middle of the fold, so it drops the total and the
        next read re-sums (an empty resource reads ``sum()``'s int 0).
        """
        used = self._used
        if used is None:
            used = self._used = sum(self._allocations.values())
        return used

    @property
    def free_bytes(self) -> float:
        """Bytes still available."""
        return self.capacity_bytes - self.used_bytes

    def holds(self, object_id: str) -> bool:
        """True if ``object_id`` has an allocation here."""
        return object_id in self._allocations

    def size_of(self, object_id: str) -> float:
        """Allocated size of ``object_id`` (raises if absent)."""
        try:
            return self._allocations[object_id]
        except KeyError:
            raise StorageError(f"{self.name} does not hold {object_id!r}") from None

    # -- operations -----------------------------------------------------------

    def _require_online(self) -> None:
        if not self.online:
            raise ResourceOffline(
                f"storage resource {self.name!r} is offline")

    def write(self, object_id: str, nbytes: float) -> float:
        """Allocate and write ``object_id``; return the operation duration.

        ``nbytes`` must be a finite number >= 0: a NaN or infinite size
        would pass every later capacity check. A write that raises
        changes nothing.
        """
        self._require_online()
        if not (nbytes >= 0 and math.isfinite(nbytes)):
            raise StorageError(
                f"object size must be finite and >= 0, got {nbytes}")
        if object_id in self._allocations:
            raise StorageError(f"{self.name} already holds {object_id!r}")
        if nbytes > self.free_bytes:
            raise CapacityExceeded(
                f"{self.name}: need {nbytes:.0f} B, only {self.free_bytes:.0f} B free")
        self.failures.check(f"write {object_id} on {self.name}")
        stored = self._allocations[object_id] = float(nbytes)
        # The capacity check above read used_bytes, so _used is set.
        self._used += stored
        duration = self.model.write_time(nbytes)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.stats.busy_seconds += duration
        return duration

    def read(self, object_id: str) -> float:
        """Read ``object_id``; return the operation duration."""
        self._require_online()
        nbytes = self.size_of(object_id)
        self.failures.check(f"read {object_id} on {self.name}")
        duration = self.model.read_time(nbytes)
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.stats.busy_seconds += duration
        return duration

    def delete(self, object_id: str) -> float:
        """Remove ``object_id``; return the operation duration."""
        self._require_online()
        self.size_of(object_id)  # existence check
        self.failures.check(f"delete {object_id} on {self.name}")
        del self._allocations[object_id]
        self._used = None
        self.stats.deletes += 1
        duration = self.model.access_latency_s
        self.stats.busy_seconds += duration
        return duration

    def retention_cost(self, seconds: float) -> float:
        """Cost of retaining the *current* contents for ``seconds``."""
        return self.model.retention_cost(self.used_bytes, seconds)

    def __repr__(self) -> str:
        return (f"<PhysicalStorageResource {self.name!r} "
                f"{self.storage_class.value} "
                f"{self.used_bytes / 1e9:.2f}/{self.capacity_bytes / 1e9:.2f} GB>")
