"""The four end-to-end workloads the benchmark times.

Each workload is one batch job of fixed size built from the paper's
deployment shapes. A :class:`Workload` instance is one batch: construct
it with a seed, call :meth:`Workload.setup` (build the deployment and
pre-populate it), then :meth:`Workload.run` (the timed phase: drive the
kernel until no event is left), then :meth:`Workload.outcome` (untimed:
invariants, the replay signature, and the per-layer counts read from
the program's public stats).

Everything the batch does is derived from the seed through named
:class:`~repro.sim.rng.RandomStreams` substreams, so one seed always
gives the same inputs and, the program being deterministic, the same
signature. The workloads use only public entry points of ``repro``.

All four are open loops in sim time: arrivals, copies and ingest waves
follow their own clock and never wait on the host. On the host each is
a closed batch whose cost is its wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Tuple

from repro.dfms.cache import attach_cache
from repro.dfms.gateway import DfMSGateway
from repro.dgl.builder import flow_builder
from repro.dgl.model import DataGridRequest, ExecutionState
from repro.errors import SimStopped
from repro.faults.model import BridgeDegradation, FaultSchedule, ZoneOutage
from repro.faults.recovery import RetryPolicy, attach_recovery
from repro.federation.chaos import attach_federation_faults
from repro.federation.placement import cross_zone_copy_by_guid
from repro.federation.scenario import federation_scenario
from repro.ilm.engine import ILMManager
from repro.ilm.policy import ILMPolicy, PlacementRule
from repro.sim.rng import RandomStreams
from repro.storage import MB
from repro.telemetry.instrument import attach_telemetry, instrument_scenario
from repro.telemetry.slo import quantile
from repro.workloads.generators import populate_collection, uniform_sizes
from repro.workloads.scenarios import cms_scenario, scec_scenario
from repro.workloads.traffic import (
    TrafficGenerator,
    TrafficProfile,
    pareto_gaps,
)

__all__ = ["WORKLOADS", "Outcome", "Workload", "COUNT_METRICS"]

#: The per-layer metrics read from public stats after a run. They cost
#: nothing to read and repeat exactly for a given seed and size.
COUNT_METRICS = (
    "sim.events", "sim.batches", "sim.events_per_job",
    "dfms.engine.steps",
    "dfms.gateway.shed_ratio", "dfms.gateway.coalesced",
    "dfms.gateway.sojourn_p99_sim_s",
    "dfms.cache.hit_rate", "dfms.cache.invalidations",
    "grid.dgms.ops",
    "network.transfers", "network.peak_active",
    "federation.false_positive_ratio", "federation.lrc_queries_per_locate",
    "faults.recovery_actions", "faults.retries_per_job",
    "ilm.applies",
    "provenance.records",
    "telemetry.log_records",
)


@dataclasses.dataclass
class Outcome:
    """What one batch produced, checked and summarized."""

    #: Jobs that reached a terminal state (flow executions, or cross-zone
    #: copy jobs in ``federation_copy``).
    jobs: int
    #: Requests attempted, and of those the ones that failed, were
    #: refused or were invalid (a wrong replica-location answer counts).
    attempted: int
    failed: int
    #: Broken invariants; empty when the batch is correct.
    violations: List[str]
    #: sha256 of the replay signature (sim-time results only).
    digest: str
    #: The :data:`COUNT_METRICS`, by name.
    counts: Dict[str, float]


def _digest(signature) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_overlap(intervals) -> int:
    """Most intervals open at one instant (ends sort before starts)."""
    edges = sorted([(start, 1) for start, _ in intervals]
                   + [(end, -1) for _, end in intervals])
    peak = active = 0
    for _, step in edges:
        active += step
        peak = max(peak, active)
    return peak


def _lost_replicas(label: str, dgms) -> List[str]:
    """Objects with no good replica, or a replica its disk does not hold."""
    problems = []
    for obj in dgms.namespace.iter_objects("/"):
        good = obj.good_replicas()
        if not good:
            problems.append(f"{label}{obj.path}: no good replica")
        for replica in good:
            physical = dgms.resources.physical(replica.physical_name).physical
            if not physical.holds(replica.allocation_id):
                problems.append(f"{label}{obj.path}: replica "
                                f"{replica.allocation_id} not on "
                                f"{replica.physical_name}")
    return problems


def _placement(dgms) -> Tuple:
    return tuple(
        (obj.path, obj.size,
         tuple(sorted(r.physical_name for r in obj.good_replicas())))
        for obj in dgms.namespace.iter_objects_in_path_order("/"))


class _OpCounter:
    """A DGMS operation listener that only counts."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, record) -> None:
        self.count += 1


class Workload:
    """One batch of one workload; subclasses fill in the three phases."""

    name = ""
    #: Frozen batch sizes. Changing one changes the pinned digests.
    SIZES: Dict[str, float] = {}

    def __init__(self, seed: int, sizes: Optional[Dict] = None) -> None:
        unknown = set(sizes or ()) - set(self.SIZES)
        if unknown:
            raise ValueError(f"{self.name}: unknown sizes {sorted(unknown)}")
        self.seed = int(seed)
        self.sizes = dict(self.SIZES, **(sizes or {}))
        self.streams = RandomStreams(self.seed)
        self.env = None
        self.grids: List = []
        self.server = None
        self.provenance = None
        self.telemetry = None
        self.cache = None
        self.recovery: Dict[str, object] = {}
        self.ilm_applies = 0
        self.batches = 0
        self.events = 0
        self._ops = _OpCounter()
        self._main = None

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Build the deployment and pre-populate it (timed as set-up)."""
        raise NotImplementedError

    def drive(self):
        """Generator: the workload's own sim process."""
        raise NotImplementedError

    def run(self) -> None:
        """The timed phase: spawn :meth:`drive`, then dispatch every
        event until the kernel is empty."""
        env = self.env
        start_eid = env._eid
        self._main = env.process(self.drive())
        step = env.step
        batches = 0
        try:
            while True:
                step()
                batches += 1
        except SimStopped:
            pass
        self.batches = batches
        self.events = env._eid - start_eid

    def outcome(self) -> Outcome:
        """Check the batch and summarize it (not timed)."""
        violations: List[str] = []
        main = self._main
        if main is None or main.is_alive:
            violations.append("workload process never finished (deadlock)")
        elif not main.ok:
            violations.append(f"workload process failed: {main.value!r}")
        jobs, attempted, failed = self.tally(violations)
        counts = dict.fromkeys(COUNT_METRICS, 0.0)
        counts.update({
            "sim.events": float(self.events),
            "sim.batches": float(self.batches),
            "sim.events_per_job": _ratio(self.events, jobs),
            "grid.dgms.ops": float(self._ops.count),
            "ilm.applies": float(self.ilm_applies),
        })
        transfers = [(stats.start_time, stats.end_time)
                     for dgms in self.grids
                     for stats in dgms.transfers.completed]
        counts["network.transfers"] = float(len(transfers))
        counts["network.peak_active"] = float(_peak_overlap(transfers))
        if self.server is not None:
            counts["dfms.engine.steps"] = float(sum(
                len(execution.journal)
                for execution in self.server.executions()))
        if self.cache is not None:
            counts["dfms.cache.hit_rate"] = self.cache.hit_rate
            counts["dfms.cache.invalidations"] = float(
                sum(self.cache.invalidations.values()))
        if self.recovery:
            actions = sum(s.total_actions for s in self.recovery.values())
            retries = sum(s.count("retry") for s in self.recovery.values())
            counts["faults.recovery_actions"] = float(actions)
            counts["faults.retries_per_job"] = _ratio(retries, jobs)
        if self.provenance is not None:
            counts["provenance.records"] = float(
                len(self.provenance.records()))
        if self.telemetry is not None:
            counts["telemetry.log_records"] = float(len(self.telemetry.log))
        self.more_counts(counts, jobs)
        signature = (self.name, self.seed, tuple(sorted(self.sizes.items())),
                     self.env.now, jobs, attempted, failed,
                     tuple(counts[name] for name in COUNT_METRICS),
                     self.signature())
        return Outcome(jobs=jobs, attempted=attempted, failed=failed,
                       violations=violations, digest=_digest(signature),
                       counts=counts)

    # -- hooks for subclasses ---------------------------------------------

    def tally(self, violations: List[str]) -> Tuple[int, int, int]:
        """(jobs, attempted, failed); append broken invariants."""
        raise NotImplementedError

    def signature(self) -> Tuple:
        """Sim-time results that must replay bit for bit."""
        raise NotImplementedError

    def more_counts(self, counts: Dict[str, float], jobs: int) -> None:
        """Fill workload-specific count metrics."""

    # -- shared helpers ----------------------------------------------------

    def _adopt(self, scenario) -> None:
        """Take the handles of a single-grid :class:`Scenario`."""
        self.scenario = scenario
        self.env = scenario.env
        self.grids = [scenario.dgms]
        self.server = scenario.server
        self.provenance = scenario.provenance

    def _count_ops(self) -> None:
        for dgms in self.grids:
            dgms.operation_listeners.append(self._ops)

    def _ilm(self) -> ILMManager:
        manager = ILMManager(self.server)
        manager.listeners.append(self._note_ilm)
        return manager

    def _note_ilm(self, kind: str, policy: str, time: float,
                  detail: Dict) -> None:
        if kind == "applied":
            self.ilm_applies += 1

    def _submit(self, flow):
        """Submit ``flow`` asynchronously; returns its completion event."""
        response = self.server.submit(DataGridRequest(
            user=self.user.qualified_name, virtual_organization=self.name,
            body=flow, asynchronous=True))
        if not response.body.valid:
            raise RuntimeError(f"{flow.name} rejected: "
                               f"{response.body.message}")
        return self.server.wait(response.request_id)

    def _flow_tally(self, violations: List[str]) -> Tuple[int, int, int]:
        """Tally for workloads whose jobs are the server's executions."""
        executions = self.server.executions()
        failed = 0
        for execution in executions:
            if not execution.state.is_terminal:
                violations.append(f"{execution.request_id}: stuck in "
                                  f"{execution.state.value}")
            elif execution.state is not ExecutionState.COMPLETED:
                failed += 1
                violations.append(f"{execution.request_id}: "
                                  f"{execution.state.value} "
                                  f"({execution.error})")
        jobs = sum(1 for e in executions if e.state.is_terminal)
        return jobs, len(executions), failed

    def _executions_signature(self) -> Tuple:
        return tuple(sorted((e.request_id, e.state.value, e.finished_at)
                            for e in self.server.executions()))


# --------------------------------------------------------------------------
# exploding_star: CMS staged replication, ILM fan-out, audit reads
# --------------------------------------------------------------------------


def _parallel_flow(name: str, paths: List[str], operation: str,
                   streams: int, **params):
    builder = flow_builder(name).parallel(max_concurrent=streams)
    for index, path in enumerate(paths):
        builder.step(f"s{index}", operation, path=path, **params)
    return builder.build()


class ExplodingStar(Workload):
    """CERN pushes event data down the tier hierarchy (paper §2.1)."""

    name = "exploding_star"
    SIZES = {"n_tier1": 4, "n_tier2_per_t1": 3, "n_events": 400,
             "streams": 32}

    def setup(self) -> None:
        sizes = self.sizes
        scenario = cms_scenario(n_tier1=sizes["n_tier1"],
                                n_tier2_per_t1=sizes["n_tier2_per_t1"],
                                n_events=0, seed=self.seed)
        self._adopt(scenario)
        self.user = scenario.users["physicist"]
        # CERN plus every tier-1 and tier-2 site.
        self.homes = 1 + sizes["n_tier1"] * (1 + sizes["n_tier2_per_t1"])
        scenario.run(populate_collection(
            scenario.dgms, self.user, "/cms/run1", sizes["n_events"],
            "cern-disk",
            size=uniform_sizes(self.streams.stream("e2e/events"),
                               low=8 * MB, high=24 * MB),
            name_prefix="events",
            metadata=lambda i: {"run": 1, "stream": f"s{i % 4}"}))
        self.paths = [obj.path for obj in scenario.dgms.namespace.
                      iter_objects_in_path_order("/cms/run1")]
        self.telemetry = instrument_scenario(scenario)
        self._count_ops()

    def drive(self):
        env = self.env
        streams = self.sizes["streams"]
        tier2 = self.scenario.extras["tier2"]
        per_t1 = self.sizes["n_tier2_per_t1"]
        # Stage 1: one parallel replication flow per tier-1 uplink.
        yield env.all_of([
            self._submit(_parallel_flow(f"t1-{domain}", self.paths,
                                        "srb.replicate", streams,
                                        resource=f"{domain}-disk"))
            for domain in self.scenario.extras["tier1"]])
        # Stage 2: tier-2 sites pull from their tier-1 over the regional
        # links (staged replication); the last tier-2 of each tier-1 is
        # left to the ILM pass.
        staged = [domain for index, domain in enumerate(tier2)
                  if index % per_t1 != per_t1 - 1]
        mirrored = [domain for index, domain in enumerate(tier2)
                    if index % per_t1 == per_t1 - 1]
        yield env.all_of([
            self._submit(_parallel_flow(f"t2-{domain}", self.paths,
                                        "srb.replicate", streams,
                                        resource=f"{domain}-disk"))
            for domain in staged])
        # Stage 3: an ILM fan-out pass per remaining tier-2 site.
        manager = self._ilm()
        passes = []
        for domain in mirrored:
            manager.add_policy(ILMPolicy(
                name=f"mirror-{domain}", collection="/cms/run1",
                domain=domain,
                rules=[PlacementRule("fan-out",
                                     f"replica_count < {self.homes}",
                                     "replicate_to", f"{domain}-disk")]))
            passes.append(env.process(manager.run_pass_sync(
                f"mirror-{domain}", self.user)))
        yield env.all_of(passes)
        # Stage 4: audit reads at every tier-2 site.
        yield env.all_of([
            self._submit(_parallel_flow(f"audit-{domain}", self.paths,
                                        "srb.get", streams,
                                        to_domain=domain))
            for domain in tier2])

    def tally(self, violations):
        dgms = self.scenario.dgms
        violations.extend(_lost_replicas("", dgms))
        for obj in dgms.namespace.iter_objects("/cms/run1"):
            if len(obj.good_replicas()) != self.homes:
                violations.append(f"{obj.path}: {len(obj.good_replicas())} "
                                  f"replicas, expected {self.homes}")
        return self._flow_tally(violations)

    def signature(self):
        transfers = self.scenario.dgms.transfers
        return (self._executions_signature(),
                tuple((s.src, s.dst, s.nbytes, s.start_time, s.end_time)
                      for s in transfers.completed),
                transfers.total_bytes_moved,
                _placement(self.scenario.dgms))


# --------------------------------------------------------------------------
# gateway_traffic: open-loop many-user front end
# --------------------------------------------------------------------------


#: The substream :class:`TrafficGenerator` draws session arrivals from.
ARRIVAL_STREAM = "traffic.arrivals"


class GatewayTraffic(Workload):
    """Heavy-tailed user sessions against the admission-controlled DfMS."""

    name = "gateway_traffic"
    SIZES = {"collection_objects": 2000, "sessions": 4500,
             "sessions_per_s": 1.25, "workers": 16, "queue_limit": 64}

    def setup(self) -> None:
        sizes = self.sizes
        scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1,
                                n_events=sizes["collection_objects"],
                                event_size=MB, seed=self.seed)
        self._adopt(scenario)
        self.telemetry = instrument_scenario(scenario)
        self.cache = attach_cache(scenario.dgms)
        self.gateway = DfMSGateway(scenario.env, scenario.server,
                                   workers=sizes["workers"],
                                   queue_limit=sizes["queue_limit"])
        profile = TrafficProfile(
            mean_interarrival_s=1.0 / sizes["sessions_per_s"],
            pareto_alpha=1.5, sync_fraction=0.1,
            query_collection="/cms/run1")
        streams = self.streams.spawn("e2e/traffic")
        self.traffic = TrafficGenerator(
            scenario.env, self.gateway,
            scenario.users["physicist"].qualified_name, profile,
            streams=streams,
            horizon_s=self._horizon_for(streams.seed, profile))
        self._count_ops()

    def _horizon_for(self, seed: int, profile: TrafficProfile) -> float:
        """The horizon at which exactly ``sessions`` sessions arrive.

        A fixed horizon would let the heavy-tailed arrival process decide
        how much work a seed gets; replaying the generator's own arrival
        substream fixes the session count and leaves the seed to shape
        bursts, lulls and each session's requests.
        """
        gaps = pareto_gaps(RandomStreams(seed).stream(ARRIVAL_STREAM),
                           profile.pareto_alpha,
                           profile.mean_interarrival_s)
        arrival = self.env.now
        for _ in range(self.sizes["sessions"]):
            arrival = arrival + next(gaps)
        return arrival + next(gaps) / 2.0

    def drive(self):
        self.traffic.start()
        return
        yield   # a generator: the traffic runs as its own processes

    def tally(self, violations):
        stats = self.traffic.stats
        gateway = self.gateway
        for kind in ("flow", "status"):
            invalid = stats.invalid if kind == "flow" else 0
            if stats.offered[kind] != (stats.accepted[kind]
                                       + stats.rejected[kind] + invalid):
                violations.append(f"{kind}: offered {stats.offered[kind]} "
                                  "!= accepted + rejected + invalid")
        if gateway.admitted != gateway.completed or gateway.queue_depth:
            violations.append(f"gateway admitted {gateway.admitted} but "
                              f"finished {gateway.completed}")
        jobs, _, failed = self._flow_tally(violations)
        if jobs != gateway.completed:
            violations.append(f"{jobs} executions for {gateway.completed} "
                              "gateway completions")
        if stats.sessions != self.sizes["sessions"]:
            violations.append(f"{stats.sessions} sessions arrived, expected "
                              f"{self.sizes['sessions']}")
        refused = sum(stats.rejected.values()) + stats.invalid
        return jobs, stats.offered_total, failed + refused

    def more_counts(self, counts, jobs):
        stats = self.traffic.stats
        gateway = self.gateway
        counts["dfms.gateway.shed_ratio"] = _ratio(
            sum(gateway.sheds.values()), stats.offered_total)
        counts["dfms.gateway.coalesced"] = float(gateway.coalesced)
        if gateway.sojourns:
            counts["dfms.gateway.sojourn_p99_sim_s"] = quantile(
                gateway.sojourns, 0.99)

    def signature(self):
        stats = self.traffic.stats
        return (self._executions_signature(),
                tuple(sorted(self.gateway.stats().items())),
                stats.sessions, tuple(sorted(stats.offered.items())),
                tuple(sorted(stats.accepted.items())),
                tuple(sorted(stats.rejected.items())), stats.invalid,
                tuple(stats.sync_latencies), tuple(self.gateway.sojourns),
                repr(self.cache.stats()))


# --------------------------------------------------------------------------
# federation_copy: cross-zone copies and locate audits under zone faults
# --------------------------------------------------------------------------

#: Patient enough to outwait two overlapping zone outages on one copy.
FEDERATION_POLICY = RetryPolicy(max_attempts=40, base_delay=1.0,
                                multiplier=2.0, max_delay=30.0, jitter=0.1)


class FederationCopy(Workload):
    """Federated archives copying by guid while zones fail (paper §2.1)."""

    name = "federation_copy"
    SIZES = {"n_zones": 8, "objects_per_zone": 300, "horizon_s": 600.0}

    def setup(self) -> None:
        sizes = self.sizes
        scenario = federation_scenario(
            n_zones=sizes["n_zones"], domains_per_zone=2,
            objects_per_zone=sizes["objects_per_zone"],
            object_size=8 * MB, seed=self.seed, sync_period_s=4.0,
            n_shards=64)
        self.scenario = scenario
        self.env = scenario.env
        self.grids = [scenario.zones[zone] for zone in sorted(scenario.zones)]
        self.telemetry = attach_telemetry(scenario.env)
        self.recovery = {
            zone: attach_recovery(scenario.zones[zone],
                                  scenario.streams.spawn(f"recovery/{zone}"),
                                  policy=FEDERATION_POLICY)
            for zone in sorted(scenario.zones)}
        horizon = sizes["horizon_s"]
        rng = self.streams.stream("e2e/federation")
        zones = sorted(scenario.zones)
        self.schedule = self._fault_schedule(rng, zones, horizon)
        self.faults = attach_federation_faults(
            scenario.federation, self.schedule, scenario.streams)
        self.jobs = []
        self.targets = []
        for zone_index, zone in enumerate(zones):
            dgms = scenario.zones[zone]
            for object_index, path in enumerate(scenario.paths[zone]):
                guid = dgms.namespace.resolve_object(path).guid
                self.targets.append(guid)
                dst = zones[(zone_index + 1 + rng.randrange(len(zones) - 1))
                            % len(zones)]
                self.jobs.append((rng.uniform(0.0, 0.5 * horizon), guid, dst,
                                  f"/data/from-{zone}-{object_index:05d}.dat"))
        self.copies: List[Tuple[str, str, str]] = []
        self.audit = {"locates": 0, "wrong": 0, "stale": 0}
        self._count_ops()

    def _fault_schedule(self, rng, zones: List[str],
                        horizon: float) -> FaultSchedule:
        """One outage per zone and one degraded bridge per zone.

        Every seed gets the same amount of disruption: each zone is dark
        for a tenth of the horizon, and the outages are staggered evenly
        across the window in which copies start, so they overlap by the
        same amount. The seed picks the order in which zones fail, a
        small jitter, and which bridges degrade when. A freely drawn
        schedule would let the seed decide how much recovery work a
        batch does. Times are relative to the start of the timed phase:
        pre-population has already moved the clock.
        """
        now = self.env.now
        outage = 0.1 * horizon
        spacing = (0.5 * horizon - outage) / len(zones)
        order = list(zones)
        rng.shuffle(order)
        events = [ZoneOutage(now + (slot + rng.random()) * spacing, outage,
                             zone) for slot, zone in enumerate(order)]
        bridges = self.scenario.federation.bridges()
        for _ in zones:
            bridge = rng.choice(bridges)
            events.append(BridgeDegradation(
                now + rng.uniform(0.0, 0.5 * horizon - outage), 2 * outage,
                bridge.zone_a, bridge.zone_b, 0.3))
        return FaultSchedule(events)

    def _copy(self, start, guid, dst, dst_path):
        yield self.env.timeout(start)
        scenario = self.scenario
        try:
            yield cross_zone_copy_by_guid(
                scenario.federation, scenario.admins[dst], guid, dst,
                dst_path, f"{dst}-d0-disk", policy="bridge-cost-aware")
        except Exception as exc:   # a failed copy is an outcome to count
            self.copies.append((dst, dst_path, type(exc).__name__))
        else:
            self.copies.append((dst, dst_path, "completed"))

    def _audit(self):
        """Rolling locate audit: every answer is checked against the
        owning zones' authoritative catalogs at the same instant."""
        scenario = self.scenario
        zones = sorted(scenario.zones)
        probes = 2 * len(self.targets)
        period = self.sizes["horizon_s"] / probes
        for index in range(probes):
            yield self.env.timeout(period)
            guid = self.targets[index % len(self.targets)]
            result = scenario.federation.locate(guid)
            self.audit["locates"] += 1
            for location in result.locations:
                obj = scenario.zones[location.zone].namespace.lookup_guid(
                    guid)
                if obj is None or not any(
                        replica.physical_name == location.physical_name
                        for replica in obj.good_replicas()):
                    self.audit["wrong"] += 1
            reported = {location.zone for location in result.locations}
            for zone in zones:
                obj = scenario.zones[zone].namespace.lookup_guid(guid)
                if (obj is not None and obj.good_replicas()
                        and zone not in reported):
                    self.audit["stale"] += 1
                    break

    def drive(self):
        env = self.env
        processes = [env.process(self._copy(*job)) for job in self.jobs]
        processes.append(env.process(self._audit()))
        yield env.all_of(processes)

    def tally(self, violations):
        scenario = self.scenario
        for zone in sorted(scenario.zones):
            violations.extend(_lost_replicas(f"{zone}:", scenario.zones[zone]))
        failed_copies = 0
        for dst, dst_path, outcome in self.copies:
            if outcome != "completed":
                failed_copies += 1
                violations.append(f"copy to {dst}:{dst_path} failed "
                                  f"({outcome})")
            elif not scenario.zones[dst].namespace.exists(dst_path):
                violations.append(f"copy to {dst}:{dst_path} completed but "
                                  "the object is missing")
        if len(self.copies) != len(self.jobs):
            violations.append(f"{len(self.jobs) - len(self.copies)} copies "
                              "never finished")
        if self.audit["wrong"]:
            violations.append(f"RLS gave {self.audit['wrong']} wrong "
                              "locations")
        faults = self.faults
        if not faults.begun == faults.ended == len(self.schedule):
            violations.append(f"fault windows: {faults.begun} begun, "
                              f"{faults.ended} ended of "
                              f"{len(self.schedule)}")
        # Post-flush convergence: every surviving object is located in
        # every zone that holds it.
        scenario.rls.flush_all()
        for zone in sorted(scenario.zones):
            for obj in scenario.zones[zone].namespace.iter_objects("/"):
                located = scenario.federation.locate(obj.guid)
                if zone not in {loc.zone for loc in located.locations}:
                    violations.append(f"post-flush locate misses "
                                      f"{zone}:{obj.path}")
        attempted = len(self.jobs) + self.audit["locates"]
        return (len(self.copies), attempted,
                failed_copies + self.audit["wrong"])

    def more_counts(self, counts, jobs):
        rls = self.scenario.rls
        counts["federation.false_positive_ratio"] = _ratio(
            rls.false_positives, rls.lrc_queries)
        counts["federation.lrc_queries_per_locate"] = _ratio(
            rls.lrc_queries, rls.lookups)

    def signature(self):
        scenario = self.scenario
        rls = scenario.rls
        return (tuple(self.copies), tuple(sorted(self.audit.items())),
                scenario.federation.copies_completed,
                scenario.federation.copies_failed,
                (rls.lookups, rls.hits, rls.misses, rls.false_positives,
                 rls.lrc_queries),
                tuple((zone, tuple(sorted(service.counts.items())))
                      for zone, service in sorted(self.recovery.items())),
                tuple(self.faults.log),
                tuple((zone, _placement(scenario.zones[zone]))
                      for zone in sorted(scenario.zones)))


# --------------------------------------------------------------------------
# archive_ingest: SCEC ingestion beside catalog curation, then tiering
# --------------------------------------------------------------------------

#: Objects above this size are tiered to tape by the final ILM pass.
TIER_BYTES = 150 * MB


class ArchiveIngest(Workload):
    """SCEC ingestion with concurrent curation and an ILM pass (§4)."""

    name = "archive_ingest"
    SIZES = {"preloaded": 2000, "ingest_flows": 40, "puts_per_flow": 50}

    def setup(self) -> None:
        sizes = self.sizes
        scenario = scec_scenario(n_files=0, seed=self.seed)
        self._adopt(scenario)
        self.user = scenario.users["scientist"]
        object_size = uniform_sizes(self.streams.stream("e2e/archive-sizes"),
                                    low=10 * MB, high=200 * MB)
        preloaded = sizes["preloaded"]
        scenario.run(populate_collection(
            scenario.dgms, self.user, "/scec/runs", preloaded, "sdsc-gpfs",
            size=object_size, name_prefix="pre",
            metadata=lambda i: {"run": f"r{i % 50}", "stage": "raw",
                                "site": f"site-{i % 7}"}))
        self.cache = attach_cache(scenario.dgms)
        rng = self.streams.stream("e2e/archive")
        self.waves = []
        index = preloaded
        for wave in range(sizes["ingest_flows"]):
            puts = []
            for _ in range(sizes["puts_per_flow"]):
                puts.append((f"/scec/runs/wave-{index:06d}.dat",
                             object_size(),
                             {"meta:run": f"r{index % 50}",
                              "meta:stage": "raw",
                              "meta:site": f"site-{index % 7}"}))
                index += 1
            run_key = f"r{rng.randrange(50)}"
            site_key = f"site-{rng.randrange(7)}"
            low = rng.uniform(10, 190) * MB
            queries = (
                ("selective", {"query": f"meta:run = '{run_key}' AND "
                                        f"meta:site = '{site_key}'"}),
                ("unselective", {"query": "meta:stage = 'raw'"}),
                ("limit", {"query": "meta:stage = 'raw'", "limit": 10}),
                ("size", {"query": f"size > {low} AND "
                                   f"size < {low + 10 * MB}"}),
            )
            curated = [f"/scec/runs/pre-{rng.randrange(preloaded):05d}.dat"
                       for _ in queries]
            self.waves.append((puts, queries, curated))
        self.curated = sorted({path for _, _, paths in self.waves
                               for path in paths})
        self._count_ops()

    def drive(self):
        env = self.env
        for wave, (puts, queries, curated) in enumerate(self.waves):
            builder = flow_builder(f"ingest-{wave}")
            for index, (path, size, metadata) in enumerate(puts):
                builder.step(f"put-{index}", "srb.put", path=path,
                             size=size, resource="sdsc-gpfs", **metadata)
            events = [self._submit(builder.build())]
            for (kind, params), target in zip(queries, curated):
                events.append(self._submit(
                    flow_builder(f"curate-{wave}-{kind}")
                    .step("query", "srb.query", collection="/scec/runs",
                          **params)
                    .step("mark", "srb.set_metadata", path=target,
                          attribute="curated", value=f"wave-{wave}")
                    .build()))
            yield env.all_of(events)
        manager = self._ilm()
        manager.add_policy(ILMPolicy(
            name="tier", collection="/scec/runs", domain="sdsc",
            rules=[PlacementRule("to-tape", f"size > {TIER_BYTES}",
                                 "migrate_to", "sdsc-tape")]))
        yield from manager.run_pass_sync("tier", self.user)

    def tally(self, violations):
        dgms = self.scenario.dgms
        violations.extend(_lost_replicas("", dgms))
        sizes = self.sizes
        expected = sizes["preloaded"] + (sizes["ingest_flows"]
                                         * sizes["puts_per_flow"])
        found = len(dgms.namespace.catalog)
        if found != expected:
            violations.append(f"{found} objects catalogued, expected "
                              f"{expected}")
        for obj in dgms.namespace.iter_objects("/scec/runs"):
            homes = {r.physical_name for r in obj.good_replicas()}
            on_tape = "sdsc-tape-1" in homes
            if on_tape != (obj.size > TIER_BYTES) or len(homes) != 1:
                violations.append(f"{obj.path}: tiered to {sorted(homes)}")
        for path in self.curated:
            if dgms.namespace.resolve(path).metadata.get("curated") is None:
                violations.append(f"{path}: curation mark missing")
        return self._flow_tally(violations)

    def signature(self):
        return (self._executions_signature(), repr(self.cache.stats()),
                _placement(self.scenario.dgms))


WORKLOADS = {cls.name: cls for cls in
             (ExplodingStar, GatewayTraffic, FederationCopy, ArchiveIngest)}
