"""Wiring provenance capture into a DGMS and a DfMS server.

The capture points are the two listener surfaces the substrates already
expose — :attr:`DataGridManagementSystem.operation_listeners` for datagrid
operations and :attr:`FlowEngine.listeners` for engine events — so
provenance is strictly observational: removing it changes nothing about
execution. Both producers build a fresh ``detail`` per event, so records
keep it uncopied.
"""

from __future__ import annotations

from repro.dfms.engine import EngineEvent
from repro.dfms.server import DfMSServer
from repro.grid.dgms import DataGridManagementSystem, OperationRecord
from repro.provenance.record import ProvenanceRecord
from repro.provenance.store import ProvenanceStore

__all__ = ["attach_to_dgms", "attach_to_server", "record_pipeline_operation"]


def attach_to_dgms(store: ProvenanceStore,
                   dgms: DataGridManagementSystem) -> None:
    """Record every DGMS operation into ``store``."""

    def _listener(record: OperationRecord) -> None:
        store.append(ProvenanceRecord(
            category="dgms", operation=record.operation,
            subject=record.path, time=record.start_time,
            end_time=record.end_time, actor=record.user,
            detail=record.detail))

    dgms.operation_listeners.append(_listener)


def attach_to_server(store: ProvenanceStore, server: DfMSServer) -> None:
    """Record every engine event (and the server's DGMS ops) into ``store``."""

    def _listener(event: EngineEvent) -> None:
        kind, request_id, instance_key, time, detail, user = event
        subject = (f"{request_id}/{instance_key}" if instance_key
                   else request_id)
        store.append(ProvenanceRecord(
            category="engine", operation=kind, subject=subject, time=time,
            actor=user, detail=detail))

    server.engine.listeners.append(_listener)


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
