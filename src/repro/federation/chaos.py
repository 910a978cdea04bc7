"""Zone-scoped chaos: federation-level fault schedules and invariants.

The single-grid chaos harness (:mod:`repro.workloads.chaos`) proves one
datagrid survives arbitrary seeded fault timing; this module lifts that
to the federation. The fault vocabulary gains two zone-scoped events —
:class:`~repro.faults.model.ZoneOutage` (every resource and intra-zone
link of one zone, down for a window) and
:class:`~repro.faults.model.BridgeDegradation` (an inter-zone bridge
loses bandwidth) — armed by a :class:`FederationFaultDriver` that
composes each zone's refcounted :class:`~repro.faults.model.FaultDriver`
mechanics, so zone faults and any intra-zone schedule stack and release
correctly.

:func:`run_federation_chaos` then drives a cross-zone copy workload plus
a continuous locate audit under such a schedule and checks the
federation's survival invariants:

* **no lost replicas federation-wide** — every object in every zone
  keeps at least one good replica whose allocation really exists;
* **stale but never wrong** — the RLS may *miss* a fresh replica (the
  audit counts those; they are bounded by the sync period) but every
  location it *returns* must be vouched for by the owning zone's
  authoritative catalog at answer time;
* **terminal copies** — every cross-zone copy either completed (and the
  object is really there) or failed terminally; none hang;
* **accounted faults** — every zone fault window begins, ends, and
  leaves a telemetry pair;
* **post-flush convergence** — once every digest syncer flushes, the
  RLS locates every surviving object in every zone that holds it.

The seed list, farmed sweep, permutation proof, sanitizer wiring, the
lost-replica and accounting checks, and the signature parts come from
:mod:`repro.workloads.chaos`; :data:`FEDERATION_CHAOS` is this
scenario's :class:`~repro.workloads.chaos.ChaosHarness`. Everything is
seeded; a violating schedule replays from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultError
from repro.faults.model import (
    ZONE_EVENT_TYPES,
    BridgeDegradation,
    FaultDriver,
    FaultEvent,
    FaultSchedule,
    ScheduleDriver,
    ZoneOutage,
)
from repro.faults.recovery import RecoveryService, attach_recovery
from repro.federation.placement import cross_zone_copy_by_guid
from repro.federation.scenario import FederationScenario, federation_scenario
from repro.sim.rng import RandomStreams
from repro.telemetry.instrument import attach_telemetry
from repro.workloads.chaos import (
    CHAOS_POLICY,
    ChaosHarness,
    accounting_violations,
    completed_transfers,
    finish_sanitizer,
    lost_replica_violations,
    replica_placement,
    start_sanitizer,
)

__all__ = [
    "FEDERATION_CHAOS",
    "FederationChaosReport",
    "FederationFaultDriver",
    "attach_federation_faults",
    "default_federation_seeds",
    "federation_fault_schedule",
    "federation_run_signature",
    "federation_canonical_signature",
    "prove_federation_order_independence",
    "run_federation_chaos",
    "run_federation_sweep",
]

#: Stream :func:`federation_fault_schedule` draws from.
FEDERATION_SCHEDULE_STREAM = "federation/fault-schedule"

#: Stream the chaos workload's start-time stagger draws from.
WORKLOAD_STREAM = "federation/workload"

#: Zone-scoped event kinds the random schedule picks between.
FEDERATION_RANDOM_KINDS = ("zone-outage", "bridge-degradation")

#: Sim-seconds the chaos workload spreads its copy starts (first half)
#: and locate audits over; its fault windows start in the first three
#: quarters.
HORIZON = 60.0

#: Objects each zone of the chaos scenario starts with.
OBJECTS_PER_ZONE = 3


def federation_fault_schedule(streams: RandomStreams, federation,
                              horizon: float, n_events: int = 5
                              ) -> FaultSchedule:
    """A seeded random zone-scoped schedule against ``federation``.

    Draws only from the ``federation/fault-schedule`` substream (never
    perturbing intra-zone streams); starts land in the first three
    quarters of ``horizon``, windows last 5–20 % of it — the same
    geometry as :meth:`~repro.faults.model.FaultSchedule.random`. A
    federation without bridges draws only zone outages.
    """
    if horizon <= 0:
        raise FaultError(f"horizon must be positive: {horizon}")
    if n_events < 0:
        raise FaultError(f"n_events cannot be negative: {n_events}")
    zones = federation.zones()
    if not zones:
        raise FaultError("federation has no zones to fault")
    bridges = federation.bridges()
    usable = [kind for kind in FEDERATION_RANDOM_KINDS
              if kind != "bridge-degradation" or bridges]
    rng = streams.stream(FEDERATION_SCHEDULE_STREAM)
    events: List[FaultEvent] = []
    for _ in range(n_events):
        kind = rng.choice(usable)
        start = rng.uniform(0.0, 0.75 * horizon)
        duration = rng.uniform(0.05 * horizon, 0.2 * horizon)
        if kind == "zone-outage":
            events.append(ZoneOutage(start, duration, rng.choice(zones)))
        else:
            bridge = rng.choice(bridges)
            events.append(BridgeDegradation(
                start, duration, bridge.zone_a, bridge.zone_b,
                round(rng.uniform(0.1, 0.6), 3)))
    return FaultSchedule(events)


class FederationFaultDriver(ScheduleDriver):
    """Arms zone-scoped schedules against a federation.

    A zone outage is "hold every physical resource and every intra-zone
    link of the zone, then release them" — the holds go through one
    per-zone :class:`~repro.faults.model.FaultDriver` whose refcounted
    mechanics this driver composes, so an overlapping intra-zone
    schedule (armed on the same mechanics driver) and zone outages
    restore each resource exactly once. Bridge degradations compose
    multiplicatively on the :class:`~repro.grid.federation.Bridge`
    itself, which is what ``bridge_cost`` (and therefore cost-aware
    placement) reads.
    """

    def __init__(self, federation, schedule: FaultSchedule,
                 streams: Optional[RandomStreams] = None) -> None:
        super().__init__(federation.env, schedule)
        self.federation = federation
        # One mechanics driver per zone, sharing the run's streams so a
        # caller can arm intra-zone schedules on the same drivers.
        self.mechanics: Dict[str, FaultDriver] = {
            zone: FaultDriver(federation.zone(zone), FaultSchedule(),
                              streams)
            for zone in federation.zones()}
        # Per zone-outage (resource names, link end pairs), resolved at
        # arm time against the then-pristine topology.
        self._zone_members: Dict[ZoneOutage,
                                 Tuple[List[str],
                                       List[Tuple[str, str]]]] = {}
        self._bridges: Dict[BridgeDegradation, object] = {}

    def _resolve_targets(self) -> None:
        for event in self.schedule:
            if not isinstance(event, ZONE_EVENT_TYPES):
                raise FaultError(
                    f"{event.kind} targets one datagrid, not a federation; "
                    "arm it with attach_faults on that zone's grid")
            if isinstance(event, ZoneOutage):
                if event.zone not in self.mechanics:
                    raise FaultError(
                        f"unknown zone {event.zone!r} in schedule")
                dgms = self.federation.zone(event.zone)
                names = sorted(dgms.resources.physical_names())
                pairs = [(link.a, link.b) for link in dgms.topology.links]
                self._zone_members[event] = (names, pairs)
            else:
                bridge = self.federation.bridge(event.zone_a, event.zone_b)
                if bridge is None:
                    raise FaultError(
                        f"no bridge {event.target} to degrade")
                self._bridges[event] = bridge

    # -- transitions ---------------------------------------------------------

    def _begin(self, event: FaultEvent) -> None:
        if isinstance(event, ZoneOutage):
            mechanics = self.mechanics[event.zone]
            names, pairs = self._zone_members[event]
            for name in names:
                mechanics.hold_storage(name)
            for a, b in pairs:
                mechanics.hold_link(a, b)
        else:
            self._bridges[event].degrade(event.factor)
        self._note("begin", event)

    def _end(self, event: FaultEvent) -> None:
        if isinstance(event, ZoneOutage):
            mechanics = self.mechanics[event.zone]
            names, pairs = self._zone_members[event]
            for name in names:
                mechanics.release_storage(name)
            for a, b in pairs:
                mechanics.release_link(a, b)
        else:
            self._bridges[event].restore(event.factor)
        self._note("end", event)


def attach_federation_faults(federation, schedule: FaultSchedule,
                             streams: Optional[RandomStreams] = None
                             ) -> FederationFaultDriver:
    """Arm a zone-scoped ``schedule``; returns the armed driver."""
    return FederationFaultDriver(federation, schedule, streams).arm()


# --------------------------------------------------------------------------
# The chaos run
# --------------------------------------------------------------------------


@dataclass
class FederationChaosReport:
    """Outcome of one federation chaos run (plain fields; pickles across
    :func:`repro.farm.run_farm` workers)."""

    seed: int
    n_zones: int
    faults: bool
    recovery: bool
    makespan: float
    faults_begun: int = 0
    faults_ended: int = 0
    copies_attempted: int = 0
    copies_completed: int = 0
    copies_failed: int = 0
    locate_audits: int = 0
    #: Audit probes where a zone held an object the RLS did not yet
    #: report — *allowed* (bounded staleness), counted to prove the
    #: eventual-consistency window is real and visible.
    stale_misses: int = 0
    #: Audit probes where the RLS reported a location the owning zone's
    #: catalog disavows — must be zero (the "never wrong" half).
    wrong_answers: int = 0
    rls_stats: Dict[str, object] = field(default_factory=dict)
    #: Zone → recovery action counts by kind.
    recovery_actions: Dict[str, Dict[str, int]] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Bit-identity fingerprint (see :func:`federation_run_signature`).
    signature: Tuple = ()
    #: Schedule-sanitizer summary (only with ``sanitize=...``): plain
    #: :meth:`~repro.analysis.sanitizer.ScheduleSanitizer.to_dict`.
    sanitizer: Optional[Dict] = None
    #: Order-insensitive fingerprint (see
    #: :func:`federation_canonical_signature`); sanitized runs only.
    canonical: Tuple = ()

    @property
    def ok(self) -> bool:
        """True when every federation invariant held."""
        return not self.violations


def federation_run_signature(scenario: FederationScenario) -> Tuple:
    """A fingerprint that is bit-identical iff two runs behaved the same.

    Covers the clock, every zone's completed transfer timings and byte
    totals, the federation copy counters, and the RLS lookup counters —
    any drift in copy routing, fault timing, sync timing, or placement
    shows up here.
    """
    zones = tuple(
        (name,
         scenario.zones[name].transfers.total_bytes_moved,
         completed_transfers(scenario.zones[name]))
        for name in sorted(scenario.zones))
    rls = scenario.rls
    return (
        scenario.env.now,
        zones,
        scenario.federation.copies_completed,
        scenario.federation.copies_failed,
        (rls.lookups, rls.hits, rls.misses, rls.false_positives,
         rls.lrc_queries),
    )


def federation_canonical_signature(scenario: FederationScenario) -> Tuple:
    """Terminal-outcome fingerprint: what order-independence *means*.

    Permutation proofs diff this, not :func:`federation_run_signature`
    (which stays the exact replay pin). Covered: the makespan, every
    zone's full replica placement (path → sorted physical homes), the
    federation copy outcome counters, and the RLS lookup count.
    Deliberately *not* covered: exact per-transfer float timings, byte
    totals, and RLS hit/miss splits — retry jitter is drawn from
    shared recovery substreams in arrival order (see
    :func:`repro.workloads.chaos.canonical_signature` for the full
    rationale), and a digest flush landing on an audit probe's
    timestamp may legitimately be observed in either order (the
    invariant is "stale but never wrong", checked separately).
    """
    zones = tuple((name, replica_placement(scenario.zones[name]))
                  for name in sorted(scenario.zones))
    return (
        scenario.env.now,
        zones,
        scenario.federation.copies_completed,
        scenario.federation.copies_failed,
        scenario.rls.lookups,
    )


def _run_workload(scenario: FederationScenario,
                  placement_policy: str) -> Tuple[List[Dict], Dict]:
    """Cross-zone copies with staggered starts plus a rolling locate
    audit; returns (copy records, audit counters) once all complete."""
    env = scenario.env
    federation = scenario.federation
    zone_names = sorted(scenario.zones)
    n_zones = len(zone_names)
    rng = scenario.streams.stream(WORKLOAD_STREAM)
    copies: List[Dict] = []
    audits = {"checks": 0, "stale_misses": 0, "wrong": 0}

    jobs = []
    targets: List[Tuple[str, str]] = []   # (origin zone, guid) per object
    for zone_index, name in enumerate(zone_names):
        dgms = scenario.zones[name]
        for object_index, path in enumerate(scenario.paths[name]):
            guid = dgms.namespace.resolve_object(path).guid
            targets.append((name, guid))
            offset = 1 + (object_index % (n_zones - 1))
            dst = zone_names[(zone_index + offset) % n_zones]
            start = rng.uniform(0.0, 0.5 * HORIZON)
            jobs.append({
                "start": start, "guid": guid, "src": name, "dst": dst,
                "dst_path": f"/data/from-{name}-obj-{object_index:04d}.dat",
                "dst_resource": f"{dst}-d0-disk",
            })

    def _copy_job(job):
        yield env.timeout(job["start"])
        record = {"guid": job["guid"], "src": job["src"],
                  "dst": job["dst"], "dst_path": job["dst_path"],
                  "outcome": "", "error": ""}
        copies.append(record)
        user = scenario.admins[job["dst"]]
        try:
            yield cross_zone_copy_by_guid(
                federation, user, job["guid"], job["dst"],
                job["dst_path"], job["dst_resource"],
                policy=placement_policy)
        except Exception as exc:   # terminal failure is a valid outcome
            record["outcome"] = "failed"
            record["error"] = type(exc).__name__
        else:
            record["outcome"] = "completed"

    def _audit():
        # Two passes over every object, spread across the horizon. Each
        # probe verifies the RLS answer against the authoritative
        # catalogs *at the same instant*, so "wrong" is exact.
        probes = 2 * len(targets)
        period = HORIZON / max(1, probes)
        for probe_index in range(probes):
            yield env.timeout(period)
            origin, guid = targets[probe_index % len(targets)]
            result = federation.locate(guid)
            audits["checks"] += 1
            for location in result.locations:
                obj = scenario.zones[location.zone].namespace.lookup_guid(
                    guid)
                held = obj is not None and any(
                    replica.physical_name == location.physical_name
                    for replica in obj.good_replicas())
                if not held:
                    audits["wrong"] += 1
            reported = {location.zone for location in result.locations}
            actual = set()
            for zone in zone_names:
                obj = scenario.zones[zone].namespace.lookup_guid(guid)
                if obj is not None and obj.good_replicas():
                    actual.add(zone)
            if actual - reported:
                audits["stale_misses"] += 1

    def _driver():
        processes = [env.process(_copy_job(job)) for job in jobs]
        audit_process = env.process(_audit())
        for process in processes:
            yield process
        yield audit_process

    env.run_process(_driver())
    return copies, audits


def _check_federation_invariants(scenario: FederationScenario,
                                 driver: Optional[FederationFaultDriver],
                                 services: Dict[str, RecoveryService],
                                 copies: List[Dict],
                                 audits: Dict) -> List[str]:
    federation = scenario.federation
    violations: List[str] = []
    for name in sorted(scenario.zones):
        violations += lost_replica_violations(scenario.zones[name],
                                              f"{name}:")

    # Stale but never wrong: the audit may count misses (bounded
    # staleness) but must never have caught an unvouched location.
    if audits["wrong"]:
        violations.append(
            f"RLS returned {audits['wrong']} location answers the owning "
            "zone disavowed")

    # Terminal copies: every cross-zone copy completed or failed — and a
    # completed copy's object really exists at the destination.
    for record in copies:
        label = f"copy {record['guid'][:8]}→{record['dst']}"
        if record["outcome"] not in ("completed", "failed"):
            violations.append(f"{label}: never reached a terminal outcome")
            continue
        if record["outcome"] != "completed":
            continue
        dst = scenario.zones[record["dst"]]
        if not dst.namespace.exists(record["dst_path"]):
            violations.append(
                f"{label}: reported completed but {record['dst_path']} "
                "does not exist")
            continue
        obj = dst.namespace.resolve_object(record["dst_path"])
        if not obj.good_replicas():
            violations.append(
                f"{label}: completed but has no good replica")

    # Accounted faults and recovery (all zones share one telemetry log).
    violations += accounting_violations(
        driver, list(services.values()), scenario.env.telemetry,
        "zone fault windows")

    # Post-flush convergence: with every digest published, the RLS must
    # locate every surviving object in every zone that holds it.
    for name in sorted(scenario.zones):
        dgms = scenario.zones[name]
        for obj in dgms.namespace.iter_objects("/"):
            if not obj.good_replicas():
                continue   # already flagged as lost above
            result = federation.locate(obj.guid)
            if name not in {loc.zone for loc in result.locations}:
                violations.append(
                    f"post-flush locate misses {name}:{obj.path}")
    return violations


def run_federation_chaos(seed: int, faults: bool = True,
                         recovery: bool = True, n_zones: int = 3,
                         schedule: Optional[FaultSchedule] = None,
                         placement_policy: str = "bridge-cost-aware",
                         sanitize=None) -> FederationChaosReport:
    """One federation chaos run: cross-zone copies and a locate audit
    under a seeded zone-scoped fault schedule.

    Each zone is a stock :func:`federation_scenario` zone holding
    :data:`OBJECTS_PER_ZONE` objects; the workload spans
    :data:`HORIZON` sim-seconds. ``faults=False`` runs the identical
    workload with no schedule (the bit-identity baseline);
    ``recovery=False`` leaves every zone fail-fast. Pass ``schedule`` to
    replay a known schedule instead of drawing one from the seed.
    ``sanitize`` attaches the schedule sanitizer exactly as in
    :func:`repro.workloads.chaos.run_chaos` — with permutation off the
    dispatch order (and therefore the pinned
    :func:`federation_run_signature`) is untouched.
    """
    scenario = federation_scenario(
        n_zones=n_zones, objects_per_zone=OBJECTS_PER_ZONE, seed=seed)
    attach_telemetry(scenario.env)
    zones = scenario.zones
    state = {f"{name}.{part}": getattr(zones[name], part)
             for name in sorted(zones) for part in ("transfers", "namespace")}
    state.update(rls=scenario.rls, federation=scenario.federation)
    sanitizer = start_sanitizer(sanitize, scenario.env, scenario.streams,
                                state)
    services: Dict[str, RecoveryService] = {}
    if recovery:
        for zone in sorted(scenario.zones):
            services[zone] = attach_recovery(
                scenario.zones[zone],
                scenario.streams.spawn(f"recovery/{zone}"),
                policy=CHAOS_POLICY)
    driver = None
    if faults:
        if schedule is None:
            schedule = federation_fault_schedule(
                scenario.streams, scenario.federation, HORIZON)
        driver = attach_federation_faults(scenario.federation, schedule,
                                          scenario.streams)
    copies, audits = _run_workload(scenario, placement_policy)
    makespan = scenario.env.now
    # Drain fault windows still open past the workload's end, then flush
    # every syncer so the convergence invariant sees current digests.
    scenario.env.run()
    scenario.rls.flush_all()
    report = FederationChaosReport(
        seed=seed, n_zones=n_zones, faults=faults, recovery=recovery,
        makespan=makespan,
        faults_begun=driver.begun if driver else 0,
        faults_ended=driver.ended if driver else 0,
        copies_attempted=len(copies),
        copies_completed=scenario.federation.copies_completed,
        copies_failed=scenario.federation.copies_failed,
        locate_audits=audits["checks"],
        stale_misses=audits["stale_misses"],
        wrong_answers=audits["wrong"],
        rls_stats=scenario.rls.stats(),
        recovery_actions={
            zone: dict(service.counts)
            for zone, service in sorted(services.items())},
        signature=federation_run_signature(scenario),
    )
    report.violations = _check_federation_invariants(
        scenario, driver, services, copies, audits)
    finish_sanitizer(sanitizer, report,
                     lambda: federation_canonical_signature(scenario))
    return report


#: The federation chaos scenario's harness.
FEDERATION_CHAOS = ChaosHarness(run_federation_chaos, 10)
default_federation_seeds = FEDERATION_CHAOS.seeds
run_federation_sweep = FEDERATION_CHAOS.sweep
prove_federation_order_independence = FEDERATION_CHAOS.prove
