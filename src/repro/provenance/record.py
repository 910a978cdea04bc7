"""Provenance record model.

§2.1 (NARA Persistent Archives): the system must store "provenance
information for not only the DGMS operations performed by the system, but
also the operations that are performed as part of the archival pipeline",
queryable "at any time, even (years) after the execution".

A record is deliberately flat and JSON-serializable: category + subject +
actor + operation + times + free detail. Three categories cover the
paper's requirement:

* ``dgms`` — every datagrid operation (put, replicate, migrate, …);
* ``engine`` — every DfMS engine event (step started/completed/failed,
  pause/resume, execution lifecycle);
* ``pipeline`` — application-level annotations recorded explicitly by
  business logic (the archival-pipeline operations).

The first two are built from the producers' own records
(:meth:`ProvenanceRecord.from_operation`,
:meth:`ProvenanceRecord.from_engine_event`), which the store keeps as
they are until the first read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional

from repro.errors import ProvenanceError

__all__ = ["ProvenanceRecord", "CATEGORIES"]

CATEGORIES = ("dgms", "engine", "pipeline")


@dataclass(frozen=True, slots=True)
class ProvenanceRecord:
    """One immutable provenance fact.

    Building one checks the category and that the operation is not
    empty. The two converters check the operation (their category is
    fixed) and fill a new record's slots directly, which takes less than
    half the time of the keyword ``__init__`` (1.6 against 3.6 µs per
    engine event on a 2-vCPU host): the store converts one record per
    engine event and DGMS operation at its first read.
    """

    category: str                 # dgms | engine | pipeline
    operation: str                # e.g. "put", "step_completed", "ocr"
    subject: str                  # object path, or request id / instance key
    time: float                   # virtual time of the fact
    actor: Optional[str] = None   # qualified user, server name, …
    end_time: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ProvenanceError(
                f"unknown category {self.category!r} (use one of {CATEGORIES})")
        if not self.operation:
            raise ProvenanceError("operation cannot be empty")

    def to_dict(self) -> dict:
        """Plain-dict form (for the JSON-lines store)."""
        return asdict(self)

    @classmethod
    def from_operation(cls, record) -> "ProvenanceRecord":
        """The ``dgms`` record of one
        :class:`~repro.grid.dgms.OperationRecord`."""
        operation, user, path, start_time, end_time, detail = record
        if not operation:
            raise ProvenanceError("operation cannot be empty")
        # The producer's read-only default detail becomes a plain dict,
        # so to_dict and the JSON-lines store can serialize it.
        if type(detail) is not dict:
            detail = dict(detail)
        return _filled("dgms", operation, path, start_time, user, end_time,
                       detail)

    @classmethod
    def from_engine_event(cls, event) -> "ProvenanceRecord":
        """The ``engine`` record of one
        :class:`~repro.dfms.engine.EngineEvent`; its subject is
        ``request_id/instance_key``, or the request id for the root."""
        kind, request_id, instance_key, time, detail, user = event
        if not kind:
            raise ProvenanceError("operation cannot be empty")
        subject = (f"{request_id}/{instance_key}" if instance_key
                   else request_id)
        return _filled("engine", kind, subject, time, user, None, detail)

    @classmethod
    def from_dict(cls, data: dict) -> "ProvenanceRecord":
        try:
            return cls(category=data["category"], operation=data["operation"],
                       subject=data["subject"], time=data["time"],
                       actor=data.get("actor"),
                       end_time=data.get("end_time"),
                       detail=data.get("detail", {}))
        except KeyError as exc:
            raise ProvenanceError(f"record is missing {exc}") from None


(_set_category, _set_operation, _set_subject, _set_time, _set_actor,
 _set_end_time, _set_detail) = (ProvenanceRecord.__dict__[slot.name].__set__
                                for slot in fields(ProvenanceRecord))


def _filled(category, operation, subject, time, actor, end_time, detail
            ) -> ProvenanceRecord:
    """A record with its slots set directly, skipping ``__init__`` and
    its checks: the converters check the operation themselves."""
    record = object.__new__(ProvenanceRecord)
    _set_category(record, category)
    _set_operation(record, operation)
    _set_subject(record, subject)
    _set_time(record, time)
    _set_actor(record, actor)
    _set_end_time(record, end_time)
    _set_detail(record, detail)
    return record
