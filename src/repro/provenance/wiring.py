"""Wiring provenance capture into a DGMS and a DfMS server.

The capture points are the two listener surfaces the substrates already
expose — :attr:`DataGridManagementSystem.operation_listeners` for datagrid
operations and :attr:`FlowEngine.listeners` for engine events — so
provenance is strictly observational: removing it changes nothing about
execution. Each surface calls :meth:`ProvenanceStore.append` with the
record its producer built (an ``OperationRecord`` or ``EngineEvent``);
the store keeps it as it is until the first read.
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
    dgms.operation_listeners.append(store.append)


def attach_to_server(store: ProvenanceStore, server: DfMSServer) -> None:
    """Record every engine event of ``server`` into ``store``."""
    server.engine.listeners.append(store.append)


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
