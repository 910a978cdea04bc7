"""The durable provenance store.

Append-only JSON-lines, optionally backed by a file so records survive
process restarts — the paper's "query … any time, even (years) after the
execution" requirement means provenance must outlive both the execution
and the server that ran it. An in-memory index by subject keeps audit
queries fast as history grows (experiment E12 measures this).

The store keeps rows, not records. Attached to a DGMS or a DfMS server
(:mod:`repro.provenance.wiring`), it is a row reader of the
environment's :class:`~repro.sim.journal.Journal`: each DGMS operation
and engine event is one journal row, stored once however many readers
read it, and the store keeps only the numbers of the rows that are its
own (an ``array('q')``). A directly appended entry — a
:class:`ProvenanceRecord`, an :class:`~repro.dfms.engine.EngineEvent`
or an :class:`~repro.grid.dgms.OperationRecord` — is encoded into the
same journal, so arrival order holds across producers. A store not yet
attached keeps its direct entries in a journal of its own, and moves
them into the environment's at its first attach.

A :class:`ProvenanceRecord` is built only when someone reads it, and the
store keeps none: :meth:`ProvenanceStore.records` is a read-only view
whose ``len()`` builds nothing, :meth:`~ProvenanceStore.for_subject`
indexes row numbers by subject at its first call and extends the index
from there, and :meth:`~ProvenanceStore.query` builds only the records
that match. A file-backed store writes each entry through as it arrives
(a journal tap for producer rows) and, once closed, refuses further
entries instead of keeping them only in memory.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.dfms.engine import EngineEvent
from repro.errors import ProvenanceError
from repro.grid.dgms import OperationRecord
from repro.provenance.record import ProvenanceRecord, _filled
from repro.sim.journal import Journal, RowView

__all__ = ["ProvenanceStore"]

_NONE = float("nan")


class ProvenanceStore:
    """Append-only record store with per-subject indexing."""

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = Path(path) if path is not None else None
        self._journal = Journal()
        #: Source of each row this store reads -> its record category
        #: ("engine", "dgms"); None for the store's own entries, whose
        #: category is in the row's key column.
        self._sources: Dict[object, Optional[str]] = {self: None}
        #: Numbers of this store's journal rows, in arrival order.
        self._rows = array("q")
        #: First journal row not scanned for this store's rows yet.
        self._cursor = 0
        #: Subject -> row numbers; built at the first for_subject.
        self._by_subject: Optional[Dict[str, List[int]]] = None
        self._indexed = 0
        self._file = None
        if self._path is not None:
            if self._path.exists():
                self._load()
            self._file = self._path.open("a", encoding="utf-8")
            self._journal.taps.append(self._write_through)

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
                self._keep(ProvenanceRecord.from_dict(data))

    @property
    def closed(self) -> bool:
        """A file-backed store after :meth:`close`: it takes no entry."""
        return self._path is not None and self._file is None

    def close(self) -> None:
        """Flush and close the backing file (no-op for in-memory stores).

        A closed store still answers reads over what it holds; appending
        to it, directly or from an attached producer, raises
        :class:`~repro.errors.ProvenanceError`.
        """
        if self._file is not None:
            self._scan()
            self._file.close()
            self._file = None

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.close()

    def _write(self, record: ProvenanceRecord) -> None:
        self._file.write(json.dumps(record.to_dict(), sort_keys=True))
        self._file.write("\n")
        self._file.flush()

    def _write_through(self, row: int) -> None:
        """Journal tap of a file-backed store: write each producer row
        this store reads as it arrives (direct entries write themselves).
        """
        source = self._journal.signatures[row][1]
        if source is not self and source in self._sources:
            if self._file is None:
                raise ProvenanceError(
                    f"provenance store {self._path} is closed")
            self._write(self._record(row))

    # -- wiring -----------------------------------------------------------

    def _enroll(self, source, category: str, journal: Journal) -> None:
        """Read ``source``'s rows (of ``category``) from ``journal`` from
        now on. The first attach moves the store's own entries into that
        journal; a store reads the producers of one environment."""
        if journal is not self._journal:
            if len(self._sources) > 1:
                raise ProvenanceError(
                    "a provenance store records the producers of one "
                    "environment")
            self._scan()
            first = journal.absorb(self._journal)
            self._rows = array("q", (first + row for row in self._rows))
            self._by_subject = None
            if self._path is not None:
                journal.taps.append(self._write_through)
            self._journal = journal
            self._cursor = len(journal)
        else:
            self._scan()
        self._sources.setdefault(source, category)

    # -- writing ------------------------------------------------------------

    def append(self, entry) -> None:
        """Add one entry: a :class:`ProvenanceRecord`, an
        :class:`~repro.dfms.engine.EngineEvent` or an
        :class:`~repro.grid.dgms.OperationRecord`, as one row (and
        written through to the file, if any). An empty operation is
        refused here, not at a later read.

        A record the caller built is kept in its row and read back as it
        is; an event or operation record is encoded into the row's
        columns, and a record is built from them at each read.
        """
        if self.closed:
            raise ProvenanceError(f"provenance store {self._path} is closed")
        kind = entry.__class__
        if kind is EngineEvent:
            operation, request_id, instance_key, time, detail, actor = entry
            category, end = "engine", None
            subject = (f"{request_id}/{instance_key}" if instance_key
                       else request_id)
        elif kind is OperationRecord:
            operation, actor, subject, time, end, detail = entry
            category = "dgms"
            # The producer's read-only default detail becomes a plain
            # dict, so to_dict and the JSON-lines store can serialize it.
            if type(detail) is not dict:
                detail = dict(detail)
        elif isinstance(entry, ProvenanceRecord):
            self._keep(entry)
            if self._file is not None:
                self._write(entry)
            return
        else:
            raise ProvenanceError(f"cannot record a {kind.__name__}")
        if not operation:
            raise ProvenanceError("operation cannot be empty")
        self._add(operation, subject, category, time, end, actor, detail)
        if self._file is not None:
            self._write(_filled(category, operation, subject, time, actor,
                                end, detail))

    def _keep(self, record: ProvenanceRecord) -> None:
        """One of the store's own rows, holding ``record`` itself."""
        self._add(record.operation, record.subject, record.category,
                  record.time, record.end_time, record.actor, record)

    def _add(self, operation, subject, category, time, end, actor,
             detail) -> None:
        """Append one of the store's own rows (its category in the key
        column), refusing it whole if a time is not a number."""
        try:
            self._journal.add(operation, self, subject, category, time,
                              _NONE if end is None else end, actor, None,
                              detail)
        except TypeError as exc:
            raise ProvenanceError(
                f"cannot record {operation!r} on {subject!r}: {exc}"
            ) from None

    # -- reading ------------------------------------------------------------

    def _scan(self) -> None:
        """Extend :attr:`_rows` with this store's rows that arrived since
        the last scan (none after a file-backed store closed)."""
        journal = self._journal
        stop = len(journal)
        if self._cursor == stop or self.closed:
            return
        signatures, mine, rows = journal.signatures, self._sources, self._rows
        for row in range(self._cursor, stop):
            if signatures[row][1] in mine:
                rows.append(row)
        self._cursor = stop

    def _subject(self, row: int, category: Optional[str]) -> str:
        journal = self._journal
        subject = journal.subjects[row]
        if category == "engine":
            key = journal.keys[row]
            if key:
                return f"{subject}/{key}"
        return subject

    def _record(self, row: int) -> ProvenanceRecord:
        """The record of journal row ``row``, built now."""
        journal = self._journal
        operation, source, actor, step_operation = journal.signatures[row]
        category = self._sources[source]
        time = journal.starts[row]
        detail = journal.details[row]
        if category is None:
            if isinstance(detail, ProvenanceRecord):
                return detail
            end = journal.ends[row]
            return _filled(journal.keys[row], operation,
                           journal.subjects[row], time, actor,
                           None if end != end else end, detail)
        if category == "engine":
            if detail is None:
                detail = ({} if step_operation is None
                          else {"operation": step_operation})
            return _filled("engine", operation,
                           self._subject(row, "engine"), time, actor, None,
                           detail)
        return _filled("dgms", operation, journal.subjects[row], time,
                       actor, journal.ends[row], detail)

    def _record_at(self, position: int) -> ProvenanceRecord:
        return self._record(self._rows[position])

    def _records(self, rows) -> List[ProvenanceRecord]:
        """The records of ``rows``: a kept record as it is (the fast path
        of an audit over appended records), the others built now."""
        details = self._journal.details
        record = self._record
        return [detail if detail.__class__ is ProvenanceRecord
                else record(row)
                for row, detail in zip(rows, map(details.__getitem__, rows))]

    def __len__(self) -> int:
        """Records held, counted without building any."""
        self._scan()
        return len(self._rows)

    def records(self) -> Sequence[ProvenanceRecord]:
        """All records, in append order: a read-only view of the records
        held now. ``len()`` builds nothing; indexing, slicing and
        iteration build fresh records, and the store keeps none."""
        self._scan()
        return RowView(self._record_at, self._rows, len(self._rows))

    def for_subject(self, subject: str) -> List[ProvenanceRecord]:
        """All records about one subject, in append order (indexed)."""
        self._scan()
        index = self._by_subject
        if index is None:
            index = self._by_subject = {}
            self._indexed = 0
        rows = self._rows
        if self._indexed < len(rows):
            signatures = self._journal.signatures
            sources = self._sources
            for position in range(self._indexed, len(rows)):
                row = rows[position]
                category = sources[signatures[row][1]]
                index.setdefault(self._subject(row, category),
                                 []).append(row)
            self._indexed = len(rows)
        return self._records(index.get(subject, ()))

    def query(self, subject_prefix: Optional[str] = None,
              category: Optional[str] = None,
              operation: Optional[str] = None,
              actor: Optional[str] = None,
              since: Optional[float] = None,
              until: Optional[float] = None) -> List[ProvenanceRecord]:
        """Filtered scan; every criterion is optional and conjunctive.
        Rows are tested column by column; only matches become records."""
        self._scan()
        journal = self._journal
        signatures, keys, starts = (journal.signatures, journal.keys,
                                    journal.starts)
        categories = self._sources
        out = []
        for row in self._rows:
            row_operation, source, row_actor, _ = signatures[row]
            row_category = categories[source]
            if category is not None and (
                    row_category or keys[row]) != category:
                continue
            if operation is not None and row_operation != operation:
                continue
            if actor is not None and row_actor != actor:
                continue
            if since is not None and starts[row] < since:
                continue
            if until is not None and starts[row] >= until:
                continue
            if subject_prefix is not None and not self._subject(
                    row, row_category).startswith(subject_prefix):
                continue
            out.append(self._record(row))
        return out
