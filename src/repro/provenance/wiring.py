"""Wiring provenance capture into a DGMS and a DfMS server.

The capture points are the two producers the substrates already expose —
:class:`~repro.grid.dgms.DataGridManagementSystem` for datagrid
operations and :class:`~repro.dfms.engine.FlowEngine` for engine events
— so provenance is strictly observational: removing it changes nothing
about execution. The store enrolls with each producer as a row reader:
its ``append`` is listed among the producer's listeners, and the
producer writes each operation or event as one row of the environment's
:class:`~repro.sim.journal.Journal` instead of calling it. The store
reads those rows through its own cursor and builds a record only when
someone reads it.
"""

from __future__ import annotations

from repro.dfms.server import DfMSServer
from repro.grid.dgms import DataGridManagementSystem
from repro.provenance.record import ProvenanceRecord
from repro.provenance.store import ProvenanceStore

__all__ = ["attach_to_dgms", "attach_to_server", "record_pipeline_operation"]


def attach_to_dgms(store: ProvenanceStore,
                   dgms: DataGridManagementSystem) -> None:
    """Record every DGMS operation into ``store``."""
    store._enroll(dgms, "dgms", dgms.enroll(store.append))


def attach_to_server(store: ProvenanceStore, server: DfMSServer) -> None:
    """Record every engine event of ``server`` into ``store``."""
    engine = server.engine
    store._enroll(engine, "engine", engine.enroll(store.append))


def record_pipeline_operation(store: ProvenanceStore, operation: str,
                              subject: str, time: float,
                              actor: str = None, **detail) -> None:
    """Record an application-level (archival-pipeline) operation.

    Business logic calls this for the §2.1 requirement that pipeline
    operations — not just DGMS ones — leave provenance.
    """
    store.append(ProvenanceRecord(
        category="pipeline", operation=operation, subject=subject,
        time=time, actor=actor, detail=detail))
