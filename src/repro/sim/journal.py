"""The run journal: what a deployment did, as rows of typed columns.

A datagridflow runs for months, and its provenance must stay queryable
years after (§2.1). Keeping each engine event, DGMS operation and
finished transfer as its own Python object until someone reads it grows
the heap and the cyclic collector's work with every event. Each of them
is instead one row appended to the environment's :class:`Journal`:
references to strings and objects the run shares anyway (the event kind,
the request id, the user's qualified name), the times in ``array('d')``
columns, and a dict only where a row has free-form detail.

Columns by producer (``source`` is the producer object itself), as
kind / subject / key / user / operation / detail:

* ``FlowEngine``: event kind / request id / instance key / user / the
  step's operation or None / the failure dict or None;
* DGMS: operation / path / None / user / None / the detail dict;
* ``TransferService``: ``"transfer"`` / source domain / destination
  domain / telemetry session or None / route link names / bytes moved;
* a provenance store's own entries, fed to
  :meth:`~repro.provenance.store.ProvenanceStore.append` directly:
  operation / subject / category / actor / None / the detail dict (or
  the record itself, when the caller built one).

``start`` and ``end`` are the row's sim times (an engine event's end is
its start; a store row's missing end is NaN). A transfer's ``user`` is
the telemetry session attached when it finished, the one whose log folds
it.

Producers append a row only while a reader is enrolled with them (the
transfer service always does: its ``completed`` view reads the rows).
Readers — a provenance store, a telemetry session's fold, that view —
each keep their own cursor or row numbers and build objects from rows
only when read. A reader that cannot wait for its cursor (a file-backed
store writes each entry through; a flight recorder is a crash's black
box) registers a tap, run with each row's number as it is appended.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import index as _as_index
from typing import Callable, Dict, List, Optional

__all__ = ["Journal", "RowView", "TRANSFER_KIND"]

#: The kind of a finished transfer's row.
TRANSFER_KIND = "transfer"


class Journal:
    """Append-only rows in typed columns: row ``n`` is item ``n`` of
    every column.

    A row's kind, source, user and operation repeat across many rows (a
    run has a few dozen distinct combinations), so they are one column
    of shared ``(kind, source, user, operation)`` tuples, one per
    distinct combination, and each row references its own.
    """

    __slots__ = ("signatures", "subjects", "keys", "starts", "ends",
                 "details", "taps", "_shared")

    def __init__(self) -> None:
        #: Each row's shared (kind, source, user, operation) tuple.
        self.signatures: List[tuple] = []
        self.subjects: list = []
        self.keys: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.details: list = []
        #: Callables run as ``tap(row)`` right after each row is appended.
        self.taps: List[Callable[[int], None]] = []
        self._shared: Dict[tuple, tuple] = {}

    def add(self, kind: str, source, subject, key, start: float,
            end: float, user, operation, detail) -> int:
        """Append one row and return its number. A time that is not a
        number raises ``TypeError`` and leaves the journal as it was."""
        row = len(self.signatures)
        signature = (kind, source, user, operation)
        shared = self._shared.setdefault(signature, signature)
        self.starts.append(start)
        try:
            self.ends.append(end)
        except TypeError:
            del self.starts[-1]
            raise
        self.signatures.append(shared)
        self.subjects.append(subject)
        self.keys.append(key)
        self.details.append(detail)
        if self.taps:
            for tap in self.taps:
                tap(row)
        return row

    def absorb(self, other: "Journal") -> int:
        """Append every row of ``other`` (no tap runs: they are not new
        entries) and return the number ``other``'s first row now has."""
        first = len(self.signatures)
        shared = self._shared
        self.signatures.extend(shared.setdefault(signature, signature)
                               for signature in other.signatures)
        for name in ("subjects", "keys", "starts", "ends", "details"):
            getattr(self, name).extend(getattr(other, name))
        return first

    def __len__(self) -> int:
        return len(self.signatures)


class RowView(Sequence):
    """A read-only sequence whose items are built from rows on each read
    and kept by no one: ``build(position)`` makes item ``position``.

    ``len()`` builds nothing; a slice is a list of fresh items. With
    ``stop`` the view is a snapshot of the first ``stop`` positions;
    without, it follows ``positions`` as it grows. It compares equal to a
    list (or view) of equal items, as the list it stands for would.
    """

    __slots__ = ("_build", "_positions", "_stop")

    def __init__(self, build: Callable[[int], object], positions,
                 stop: Optional[int] = None) -> None:
        self._build = build
        self._positions = positions
        self._stop = stop

    def __len__(self) -> int:
        stop = self._stop
        return len(self._positions) if stop is None else stop

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            build = self._build
            return [build(position)
                    for position in range(*index.indices(size))]
        position = _as_index(index)
        if position < 0:
            position += size
        if not 0 <= position < size:
            raise IndexError("row view index out of range")
        return self._build(position)

    def __iter__(self):
        build = self._build
        for position in range(len(self)):
            yield build(position)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, RowView)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} rows>"
