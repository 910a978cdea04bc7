"""The structured telemetry event log.

Every instrumented subsystem appends :class:`TelemetryRecord` entries —
engine progress, ILM decisions, trigger firings, transfer completions —
to one append-only, sim-time-ordered log. It is the third telemetry
surface next to metrics (aggregates) and spans (timed trees): the raw
narrative of a run, exported verbatim as JSONL and durable enough to be
the provenance-grade record §2.1 wants "retained for years".
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

__all__ = ["TelemetryRecord", "EventLog"]


class TelemetryRecord(NamedTuple):
    """One structured log entry: a kind, a sim timestamp, and fields.

    A ``NamedTuple`` (not a dataclass) deliberately: records are created
    on hot instrumentation paths, and tuple construction is the cheapest
    immutable carrier Python has. The hottest emitters skip even the
    generated ``__new__`` and build records with
    ``tuple.__new__(TelemetryRecord, (time, kind, fields))``.
    """

    time: float
    kind: str
    fields: Dict[str, object]


class EventLog:
    """Append-only structured log stamped with simulation time."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.records: List[TelemetryRecord] = []
        #: Attached :class:`~repro.telemetry.recorder.FlightRecorder`, or
        #: None (the default). When set, every emit tees one ring entry —
        #: a single attribute load and branch on the emit path otherwise.
        self.recorder = None

    def emit(self, kind: str, **fields: object) -> TelemetryRecord:
        """Append one record at the current sim time and return it."""
        record = TelemetryRecord(self._clock(), kind, fields)
        self.records.append(record)
        recorder = self.recorder
        if recorder is not None:
            recorder.record(kind, fields)
        return record

    def of_kind(self, kind: str) -> List[TelemetryRecord]:
        """All records of one kind, in emission order."""
        return [record for record in self.records if record.kind == kind]

    def __len__(self) -> int:
        return len(self.records)
