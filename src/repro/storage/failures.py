"""Failure injection for simulated storage.

Long-run datagrid processes must survive component faults — a key reason the
paper demands start/stop/restart and provenance (§2.1, §3.1). The injector
decides, per operation, whether a simulated fault occurs, either
probabilistically (seeded) or via an explicit deterministic schedule, so
tests can script exact failure points.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Optional, Set

from repro.errors import StorageFailure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RandomStreams

__all__ = ["FailureInjector", "NO_FAILURES"]

#: Stream-name prefix for per-resource failure draws (see
#: :meth:`FailureInjector.for_resource`).
STREAM_PREFIX = "storage-failures"


class FailureInjector:
    """Decides whether each successive operation fails.

    Parameters
    ----------
    probability:
        Independent chance that any operation fails.
    rng:
        Seeded random stream (required when ``probability`` > 0).
    fail_ops:
        Explicit 1-based operation indices that must fail, regardless of
        ``probability`` — for deterministic fault scripting in tests.
    """

    def __init__(self, probability: float = 0.0,
                 rng: Optional[random.Random] = None,
                 fail_ops: Optional[Iterable[int]] = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability > 0.0 and rng is None:
            raise ValueError("probabilistic injection requires a seeded rng")
        self.probability = probability
        self._rng = rng
        self._fail_ops: Set[int] = set(fail_ops or ())
        self._op_count = 0
        self.failures_injected = 0

    @classmethod
    def for_resource(cls, streams: "RandomStreams", resource_name: str,
                     probability: float = 0.0,
                     fail_ops: Optional[Iterable[int]] = None
                     ) -> "FailureInjector":
        """An injector drawing from the *per-resource* named stream.

        Each resource gets its own substream
        (``storage-failures/<resource>``) of ``streams``, so how often one
        resource is probed never shifts another resource's fault points,
        and fault draws are isolated from every other stochastic component
        of the run — the property chaos schedules need to be reproducible.
        """
        return cls(probability=probability,
                   rng=streams.stream(f"{STREAM_PREFIX}/{resource_name}"),
                   fail_ops=fail_ops)

    def should_fail(self) -> bool:
        """Record one operation and report whether it fails."""
        self._op_count += 1
        fails = self._op_count in self._fail_ops
        if not fails and self.probability > 0.0:
            fails = self._rng.random() < self.probability
        if fails:
            self.failures_injected += 1
        return fails

    def check(self, description: str) -> None:
        """Raise :class:`StorageFailure` if this operation fails."""
        if self.should_fail():
            raise StorageFailure(
                f"injected fault on operation #{self._op_count}: {description}")


#: Shared injector that never fails; safe to reuse because it is stateless
#: apart from counters, which callers of this constant never read.
NO_FAILURES = FailureInjector()
