"""Federated multi-zone datagrids.

The paper's federation story (§2.1, the SRB zone model) is autonomous
zones — each a full datagrid — joined so any user addresses any zone's
data. This package is that layer:

* :mod:`repro.federation.namespace` — the ``zone:/path`` router over a
  :class:`~repro.grid.federation.Federation`;
* :mod:`repro.federation.rls` — the two-tier replica location service:
  authoritative per-zone Local Replica Catalogs under a sharded,
  bloom-digest Replica Location Index ("stale but never wrong");
* :mod:`repro.federation.sync` — seeded, bounded-staleness digest
  propagation as sim-time machinery;
* :mod:`repro.federation.placement` — cross-zone source-selection and
  spread policies feeding the federation's resilient copy path;
* :mod:`repro.federation.scenario` — a deterministic multi-zone
  deployment builder;
* :mod:`repro.federation.chaos` — zone-scoped fault schedules
  (:class:`~repro.faults.model.ZoneOutage`,
  :class:`~repro.faults.model.BridgeDegradation`) and the federation
  survival invariants.

The core :class:`~repro.grid.federation.Federation` (zones, bridges,
cross-zone copy) stays in :mod:`repro.grid` so the grid layer never
imports upward; everything here attaches to it duck-typed.
"""

from repro.federation.chaos import (
    FederationChaosReport,
    FederationFaultDriver,
    attach_federation_faults,
    default_federation_seeds,
    federation_fault_schedule,
    federation_run_signature,
    run_federation_chaos,
    run_federation_sweep,
)
from repro.federation.namespace import FederatedNamespace
from repro.federation.placement import (
    PLACEMENT_POLICIES,
    cross_zone_copy_by_guid,
    rank_source_zones,
    select_source_zone,
    spread_zones,
)
from repro.federation.rls import (
    BloomDigest,
    FlatReplicaDirectory,
    LocalReplicaCatalog,
    LocateResult,
    ReplicaLocation,
    ReplicaLocationIndex,
    ReplicaLocationService,
    attach_rls,
    shard_of,
)
from repro.federation.scenario import (
    FederationScenario,
    federation_scenario,
    zone_name,
)
from repro.federation.sync import DigestSyncer
from repro.workloads.chaos import sweep_fingerprint

__all__ = [
    "BloomDigest",
    "DigestSyncer",
    "FederatedNamespace",
    "FederationChaosReport",
    "FederationFaultDriver",
    "FederationScenario",
    "FlatReplicaDirectory",
    "LocalReplicaCatalog",
    "LocateResult",
    "PLACEMENT_POLICIES",
    "ReplicaLocation",
    "ReplicaLocationIndex",
    "ReplicaLocationService",
    "attach_federation_faults",
    "attach_rls",
    "cross_zone_copy_by_guid",
    "default_federation_seeds",
    "federation_fault_schedule",
    "federation_run_signature",
    "federation_scenario",
    "rank_source_zones",
    "run_federation_chaos",
    "run_federation_sweep",
    "select_source_zone",
    "shard_of",
    "spread_zones",
    "sweep_fingerprint",
    "zone_name",
]
