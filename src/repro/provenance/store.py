"""The durable provenance store.

Append-only JSON-lines, optionally backed by a file so records survive
process restarts — the paper's "query … any time, even (years) after the
execution" requirement means provenance must outlive both the execution
and the server that ran it. An in-memory index by subject keeps audit
queries fast as history grows (experiment E12 measures this).

An in-memory store keeps each engine event and DGMS operation as the
record its producer already built, in a pending tail: recording one
costs a list append and builds nothing. The first read converts the
tail into :class:`ProvenanceRecord`\\ s, in arrival order, and indexes
them; so does appending a :class:`ProvenanceRecord`, which keeps the
append order. A file-backed store converts and writes each entry
through as it arrives.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.dfms.engine import EngineEvent
from repro.errors import ProvenanceError
from repro.grid.dgms import OperationRecord
from repro.provenance.record import ProvenanceRecord

__all__ = ["ProvenanceStore"]

#: Producer record type -> its converter, one per producer kind.
_CONVERTERS = {
    EngineEvent: ProvenanceRecord.from_engine_event,
    OperationRecord: ProvenanceRecord.from_operation,
}


class ProvenanceStore:
    """Append-only record store with per-subject indexing."""

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = Path(path) if path is not None else None
        self._records: List[ProvenanceRecord] = []
        self._by_subject: Dict[str, List[int]] = {}
        #: Producer records not converted yet, in arrival order.
        self._pending: list = []
        self._file = None
        if self._path is not None and self._path.exists():
            self._load()
        if self._path is not None:
            self._file = self._path.open("a", encoding="utf-8")

    # -- persistence ------------------------------------------------------

    def _load(self) -> None:
        with self._path.open(encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ProvenanceError(
                        f"{self._path}:{line_number}: corrupt record: {exc}"
                    ) from None
                self._index(ProvenanceRecord.from_dict(data))

    def close(self) -> None:
        """Flush and close the backing file (no-op for in-memory stores)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.close()

    # -- writing ------------------------------------------------------------

    def _index(self, record: ProvenanceRecord) -> None:
        self._records.append(record)
        self._by_subject.setdefault(record.subject, []).append(
            len(self._records) - 1)

    def _settle(self) -> None:
        """Convert and index the pending tail in arrival order, dropping
        each producer record as it is converted."""
        pending = self._pending
        pending.reverse()
        index = self._index
        while pending:
            entry = pending.pop()
            index(_CONVERTERS[entry.__class__](entry))

    def append(self, entry) -> None:
        """Add one entry: a :class:`ProvenanceRecord`, an
        :class:`~repro.dfms.engine.EngineEvent` or an
        :class:`~repro.grid.dgms.OperationRecord` (written through to the
        file, if any)."""
        convert = _CONVERTERS.get(entry.__class__)
        if convert is not None:
            if self._file is None:
                # Field 0 of both producer records is the operation, the
                # one field a conversion checks: check it now, so a bad
                # entry fails at its producer and never at a read.
                if not entry[0]:
                    raise ProvenanceError("operation cannot be empty")
                self._pending.append(entry)
                return
            entry = convert(entry)
        elif not isinstance(entry, ProvenanceRecord):
            raise ProvenanceError(
                f"cannot record a {type(entry).__name__}")
        self._settle()
        self._index(entry)
        if self._file is not None:
            self._file.write(json.dumps(entry.to_dict(), sort_keys=True))
            self._file.write("\n")
            self._file.flush()

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records) + len(self._pending)

    def records(self) -> List[ProvenanceRecord]:
        """All records, in append order."""
        self._settle()
        return list(self._records)

    def for_subject(self, subject: str) -> List[ProvenanceRecord]:
        """All records about one subject, in append order (indexed)."""
        self._settle()
        return [self._records[i] for i in self._by_subject.get(subject, ())]

    def query(self, subject_prefix: Optional[str] = None,
              category: Optional[str] = None,
              operation: Optional[str] = None,
              actor: Optional[str] = None,
              since: Optional[float] = None,
              until: Optional[float] = None) -> List[ProvenanceRecord]:
        """Filtered scan; every criterion is optional and conjunctive."""
        self._settle()
        out = []
        for record in self._records:
            if subject_prefix is not None and not record.subject.startswith(
                    subject_prefix):
                continue
            if category is not None and record.category != category:
                continue
            if operation is not None and record.operation != operation:
                continue
            if actor is not None and record.actor != actor:
                continue
            if since is not None and record.time < since:
                continue
            if until is not None and record.time >= until:
                continue
            out.append(record)
        return out
