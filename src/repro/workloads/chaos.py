"""Chaos harness: randomized fault schedules against standard scenarios.

The faults subsystem earns its keep only if recovery actually preserves
the datagrid's guarantees under arbitrary (seeded) failure timing. This
module runs the standard CMS exploding-star workload — concurrent staged
replication flows, an ILM fan-out pass, and an audit read pass — under a
:meth:`~repro.faults.model.FaultSchedule.random` schedule with the whole
recovery stack attached (DGMS failover + transfer resume + flow
supervision), then checks the survival invariants:

* **no lost replicas** — every object keeps at least one good replica and
  every good replica's allocation really exists on its physical resource;
* **terminal executions** — every submitted execution reached a terminal
  state (and, with recovery enabled, COMPLETED);
* **complete provenance** — each execution's chain has its start, its
  terminal record, and a completion record per journalled step;
* **accounted faults** — every fault window begin/end pair and every
  recovery action is visible in telemetry.

It also holds what every chaos scenario shares (the federation's
:mod:`repro.federation.chaos` is the other one): :class:`ChaosHarness`
(seed list, farmed sweep, permutation proof), the sanitizer attach and
detach, the lost-replica and accounting invariants, and the signature
parts both scenarios pin. A scenario supplies only its builder, its
workload, its report, its exact and canonical signatures, and the
invariants only it checks.

Everything is seeded, so a violating schedule is a reproducible test
case: rerun :func:`run_chaos` with the reported seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dgl.builder import flow_builder
from repro.dgl.model import DataGridRequest, ExecutionState
from repro.faults.model import FaultDriver, FaultSchedule, attach_faults
from repro.faults.recovery import (
    FlowSupervisor,
    RecoveryService,
    RetryPolicy,
    attach_recovery,
)
from repro.ilm.engine import ILMManager
from repro.ilm.policy import ILMPolicy, PlacementRule
from repro.sim.rng import RandomStreams
from repro.storage import MB
from repro.telemetry.instrument import (
    attach_observability,
    instrument_scenario,
)
from repro.workloads.scenarios import Scenario, cms_scenario

__all__ = ["ChaosReport", "ObserveReport", "run_chaos", "run_chaos_sweep",
           "run_signature", "canonical_signature",
           "prove_chaos_order_independence",
           "CHAOS_POLICY", "default_chaos_seeds",
           "ChaosHarness", "CHAOS", "start_sanitizer", "finish_sanitizer",
           "lost_replica_violations", "accounting_violations",
           "completed_transfers", "replica_placement", "sweep_fingerprint"]

#: Generous budget: a chaos outage can hold a resource down for a fifth
#: of the horizon, so retries must be able to outwait the longest window
#: (capped delays sum well past it) without spinning hot.
CHAOS_POLICY = RetryPolicy(max_attempts=12, base_delay=1.0, multiplier=2.0,
                           max_delay=30.0, jitter=0.1)


@dataclass
class ObserveReport:
    """What the observability stack saw during one chaos run.

    Plain lists/dicts/strings throughout so a report still pickles
    cleanly across :func:`repro.farm.run_farm` workers.
    """

    #: Every SLO alert raised, as plain dicts (labels flattened).
    alerts: List[Dict] = field(default_factory=list)
    #: Injected fault windows seen by telemetry, and the subset no
    #: fault-window alert covered (the recall gate asserts it is empty).
    fault_windows: int = 0
    uncovered_windows: List[Tuple] = field(default_factory=list)
    #: Flight-recorder state at the end of the run.
    recorder_records: int = 0
    recorder_dropped: int = 0
    dump_reason: Optional[str] = None
    dump_lines: List[str] = field(default_factory=list)
    #: Full JSONL telemetry export (only when ``observe_export=True``).
    jsonl: List[str] = field(default_factory=list)


@dataclass
class ChaosReport:
    """Outcome of one chaos run: metrics plus invariant violations."""

    seed: int
    faults: bool
    recovery: bool
    makespan: float
    faults_begun: int = 0
    faults_ended: int = 0
    interrupted_transfers: int = 0
    restarts: int = 0
    recovery_actions: Dict[str, int] = field(default_factory=dict)
    executions: Dict[str, str] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Bit-identity fingerprint of the run (see :func:`run_signature`).
    signature: Tuple = ()
    #: Observability results (only when ``run_chaos(observe=True)``).
    observe: Optional[ObserveReport] = None
    #: Schedule-sanitizer summary (only when ``run_chaos(sanitize=...)``):
    #: plain :meth:`~repro.analysis.sanitizer.ScheduleSanitizer.to_dict`.
    sanitizer: Optional[Dict] = None
    #: Order-insensitive fingerprint (see :func:`canonical_signature`);
    #: filled only for sanitized runs — permutation proofs diff this.
    canonical: Tuple = ()

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations


def run_signature(scenario: Scenario) -> Tuple:
    """A fingerprint that is bit-identical iff two runs behaved the same.

    Covers the clock, every completed transfer's exact float timings, the
    terminal state and finish time of every execution, and the provenance
    record count — enough that any behavioural drift in the no-fault path
    shows up as a signature mismatch.
    """
    return (
        scenario.env.now,
        completed_transfers(scenario.dgms),
        scenario.dgms.transfers.total_bytes_moved,
        tuple(sorted((e.request_id, e.state.value, e.finished_at)
                     for e in scenario.server.executions())),
        len(scenario.provenance),
    )


def canonical_signature(scenario: Scenario) -> Tuple:
    """Terminal-outcome fingerprint: what order-independence *means*.

    Permutation proofs diff this, not :func:`run_signature` (which
    stays the exact replay pin). Covered: the makespan, the full
    replica placement of every object (path → sorted physical homes),
    and every execution's terminal state. Deliberately *not* covered:
    exact per-transfer float timings, byte totals, and provenance
    record counts — recovery retries draw backoff jitter from
    substreams *shared* across consumers (``recovery/backoff``,
    ``recovery/supervisor``), so two same-timestamp retries swap their
    jitter values under reordering and attempt counts drift. That
    draw-order sensitivity is pinned, shipped behaviour (the replay
    contract fixes the order); DGF007 exists to keep new code from
    adding more of it. What this signature proves is the paper-level
    guarantee: under *every* legal same-timestamp schedule, the grid
    converges to the same terminal state in the same sim time with all
    survival invariants intact.
    """
    return (
        scenario.env.now,
        replica_placement(scenario.dgms),
        tuple(sorted((e.request_id, e.state.value)
                     for e in scenario.server.executions())),
    )


# --------------------------------------------------------------------------
# What every chaos scenario shares
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosHarness:
    """The seed list, sweep and permutation proof of one chaos scenario.

    ``run(seed, **kwargs)`` returns a report with ``signature`` (and
    ``canonical`` when sanitized); it stays module-level because
    :func:`repro.farm.run_farm` pickles it. The default sweep is seeds
    ``0 .. seed_count - 1``.
    """

    run: Callable[..., Any]
    seed_count: int

    def seeds(self) -> List[int]:
        """The default seed list."""
        return list(range(self.seed_count))

    def sweep(self, seeds: Optional[List[int]] = None,
              **kwargs) -> List[Any]:
        """``run`` for every seed, through :func:`repro.farm.run_farm`.

        Reports come back in seed order, byte-identical to a serial loop,
        whether the farm ran them inline or pooled; ``seeds`` defaults to
        :meth:`seeds`, and ``kwargs`` reach every run.
        """
        from repro.farm import run_farm

        if seeds is None:
            seeds = self.seeds()
        return run_farm(self.run, seeds, kwargs=kwargs)

    def prove(self, seed: int, *, order: str = "reverse",
              permute_seed: int = 0, max_runs: int = 40, **kwargs):
        """Prove (or refute with a minimized witness) that the run for
        ``seed`` is independent of legal same-timestamp dispatch order.

        Drives :func:`repro.analysis.sanitizer.prove_order_independence`
        over fresh runs, diffing their ``canonical`` signatures;
        ``kwargs`` reach every run.
        """
        from repro.analysis.sanitizer import (
            ScheduleSanitizer,
            prove_order_independence,
        )

        def _run(config):
            sanitizer = ScheduleSanitizer(config)
            report = self.run(seed, sanitize=sanitizer, **kwargs)
            return report.canonical, sanitizer

        return prove_order_independence(_run, order=order,
                                        permute_seed=permute_seed,
                                        max_runs=max_runs)


def start_sanitizer(sanitize, env, streams: RandomStreams,
                    state: Dict[str, object]):
    """Attach the schedule sanitizer a chaos run asked for (None if off).

    ``sanitize`` is ``None``/``False`` (off), ``True``, a
    ``SanitizeConfig``, or a ``ScheduleSanitizer`` the caller reads back
    (the proof driver's). Call it before recovery or faults attach, so
    every substream of ``streams``, including the shared recovery draws
    DGF007 guards, is draw-tracked. ``state`` maps labels to the shared
    objects the race detector watches.
    """
    if sanitize is None or sanitize is False:
        return None
    from repro.analysis.sanitizer import SanitizeConfig, ScheduleSanitizer

    if isinstance(sanitize, ScheduleSanitizer):
        sanitizer = sanitize
    else:
        sanitizer = ScheduleSanitizer(
            sanitize if isinstance(sanitize, SanitizeConfig) else None)
    sanitizer.attach(env)
    sanitizer.track_streams(streams)
    for label, obj in state.items():
        sanitizer.track_object(label, obj)
    return sanitizer


def finish_sanitizer(sanitizer, report,
                     canonical: Callable[[], Tuple]) -> None:
    """Detach a run's sanitizer, if any, and fill ``report.sanitizer``
    and ``report.canonical`` (built by ``canonical()``). The violations
    join the canonical signature, so a permuted schedule that breaks an
    invariant refutes the proof even if the placement matches.
    """
    if sanitizer is None:
        return
    sanitizer.detach()
    report.sanitizer = sanitizer.to_dict()
    report.canonical = canonical() + (tuple(report.violations),)


def lost_replica_violations(dgms, label: str) -> List[str]:
    """No lost replicas: every object of ``dgms`` keeps a good replica,
    and every good replica's allocation exists on its physical resource.
    ``label`` prefixes each path in the messages (``"z0:"`` or ``""``).
    """
    violations: List[str] = []
    for obj in dgms.namespace.iter_objects("/"):
        good = obj.good_replicas()
        if not good:
            violations.append(f"{label}{obj.path}: no good replicas left")
        for replica in good:
            physical = dgms.resources.physical(replica.physical_name).physical
            if not physical.holds(replica.allocation_id):
                violations.append(
                    f"{label}{obj.path}: replica {replica.allocation_id} "
                    f"missing from {replica.physical_name}")
    return violations


def accounting_violations(driver, services: Sequence[RecoveryService],
                          telemetry, windows: str) -> List[str]:
    """Accounted faults: every window of ``driver``'s schedule (if any)
    began, ended and left a telemetry pair, and every action of the
    recovery ``services`` reached the telemetry log. ``windows`` names
    the windows in the messages (``"fault windows"``).
    """
    violations: List[str] = []
    if driver is not None:
        if driver.begun != len(driver.schedule):
            violations.append(
                f"{driver.begun}/{len(driver.schedule)} {windows} began")
        if driver.ended != driver.begun:
            violations.append(
                f"{driver.ended}/{driver.begun} {windows} ended")
        if telemetry is not None:
            begins = len(telemetry.log.of_kind("fault.begin"))
            ends = len(telemetry.log.of_kind("fault.end"))
            if begins != driver.begun or ends != driver.ended:
                violations.append(
                    f"telemetry saw {begins} begins/{ends} ends for "
                    f"{driver.begun}/{driver.ended} fault transitions")
    if services and telemetry is not None:
        kinds = {kind for service in services for kind in service.counts}
        logged = sum(len(telemetry.log.of_kind(f"recovery.{kind}"))
                     for kind in kinds)
        total = sum(service.total_actions for service in services)
        if logged != total:
            violations.append(
                f"telemetry logged {logged} of {total} recovery actions")
    return violations


def completed_transfers(dgms) -> Tuple:
    """Every completed transfer of ``dgms`` with its exact float timings,
    in completion order: the exact-replay part of a run signature."""
    return tuple((s.src, s.dst, s.nbytes, s.start_time, s.end_time)
                 for s in dgms.transfers.completed)


def replica_placement(dgms) -> Tuple:
    """Each object's path and sorted good-replica homes, by path: the
    terminal-outcome part of a canonical signature."""
    return tuple(sorted(
        (obj.path,
         tuple(sorted(replica.physical_name
                      for replica in obj.good_replicas())))
        for obj in dgms.namespace.iter_objects("/")))


def sweep_fingerprint(reports: Sequence[Any]) -> str:
    """One hex digest over a whole sweep's signatures: the form the
    pinned ``benchmarks/*_baseline.sha256`` files hold."""
    blob = "\n".join(repr(report.signature) for report in reports)
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# The workload
# --------------------------------------------------------------------------


def _replicate_flow(name: str, paths: List[str], resource: str):
    builder = flow_builder(name)
    for index, path in enumerate(paths):
        builder.step(f"rep-{index}", "srb.replicate",
                     path=path, resource=resource)
    return builder.build()


def _audit_flow(name: str, paths: List[str], to_domain: str):
    builder = flow_builder(name)
    for index, path in enumerate(paths):
        builder.step(f"get-{index}", "srb.get",
                     path=path, to_domain=to_domain)
    return builder.build()


def _run_workload(scenario: Scenario,
                  supervisor: Optional[FlowSupervisor]) -> None:
    env = scenario.env
    server = scenario.server
    user = scenario.users["physicist"]
    paths = [obj.path for obj in
             scenario.dgms.namespace.iter_objects_in_path_order("/cms/run1")]
    tier1_resources = scenario.extras["tier1_resources"]
    tier2_domain = scenario.extras["tier2"][0]
    tier2_resource = scenario.extras["tier2_resources"][0]

    def submit(flow):
        """Start one flow; returns a process resolving to its execution."""
        request = DataGridRequest(user=user.qualified_name,
                                  virtual_organization="chaos", body=flow,
                                  asynchronous=True)
        if supervisor is not None:
            def _supervised():
                execution = yield from supervisor.run(request)
                return execution
            return env.process(_supervised())
        response = server.submit(request)

        def _unsupervised():
            execution = yield server.wait(response.request_id)
            return execution
        return env.process(_unsupervised())

    def _driver():
        # Stage 1: staged replication, one concurrent flow per tier-1.
        stage1 = [submit(_replicate_flow(f"stage1-{resource}", paths,
                                         resource))
                  for resource in tier1_resources]
        for process in stage1:
            yield process
        # Stage 2: an ILM fan-out pass mirrors everything to a tier-2
        # resource — the months-long lifecycle process, here supervised.
        manager = ILMManager(server)
        manager.add_policy(ILMPolicy(
            name="t2-mirror", collection="/cms/run1", domain=tier2_domain,
            rules=[PlacementRule("fan-out", "replica_count < 4",
                                 "replicate_to", tier2_resource)]))
        yield from manager.run_pass_sync("t2-mirror", user,
                                         supervisor=supervisor)
        # Stage 3: audit reads to a tier-2 domain (exercises the
        # alternate-replica failover path in DGMS.get).
        yield submit(_audit_flow("audit", paths, tier2_domain))

    env.run_process(_driver())


# --------------------------------------------------------------------------
# Invariants only the CMS scenario checks
# --------------------------------------------------------------------------


def _check_invariants(scenario: Scenario, driver: Optional[FaultDriver],
                      service: Optional[RecoveryService]) -> List[str]:
    server = scenario.server
    provenance = scenario.provenance
    violations = lost_replica_violations(scenario.dgms, "")

    # Every execution reached a terminal state; with recovery attached
    # the chaos workload must come out COMPLETED, not merely terminal.
    for execution in server.executions():
        if not execution.state.is_terminal:
            violations.append(
                f"{execution.request_id}: stuck in "
                f"{execution.state.value}")
        elif (service is not None
              and execution.state is not ExecutionState.COMPLETED):
            violations.append(
                f"{execution.request_id}: {execution.state.value} despite "
                f"recovery ({execution.error})")

    # Provenance chain complete: start, terminal record, and one
    # completion record per journalled step instance.
    for execution in server.executions():
        kinds = {record.operation
                 for record in provenance.for_subject(execution.request_id)}
        if "execution_started" not in kinds:
            violations.append(
                f"{execution.request_id}: provenance missing "
                "execution_started")
        if execution.state.is_terminal:
            terminal = f"execution_{execution.state.value}"
            if terminal not in kinds:
                violations.append(
                    f"{execution.request_id}: provenance missing {terminal}")
        for key in execution.journal:
            step_kinds = {record.operation for record in provenance.
                          for_subject(f"{execution.request_id}/{key}")}
            if not step_kinds & {"step_completed", "step_replayed"}:
                violations.append(
                    f"{execution.request_id}/{key}: journalled step has no "
                    "completion provenance")

    violations += accounting_violations(
        driver, [service] if service is not None else [],
        scenario.env.telemetry, "fault windows")
    return violations


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def run_chaos(seed: int, faults: bool = True, recovery: bool = True,
              n_fault_events: int = 6, horizon: float = 40.0,
              n_events: int = 4, event_size: float = 16 * MB,
              schedule: Optional[FaultSchedule] = None,
              observe: bool = False,
              observe_dump_path: Optional[str] = None,
              observe_export: bool = False,
              cache: bool = False,
              sanitize=None) -> ChaosReport:
    """One chaos run: CMS workload under a seeded fault schedule.

    ``faults=False`` runs the identical workload with no schedule
    attached (the bit-identity baseline); ``recovery=False`` leaves the
    grid fail-fast so the damage a schedule does is measurable. Pass an
    explicit ``schedule`` to replay a known one instead of drawing a
    random schedule from the seed.

    ``observe=True`` attaches the full observability stack (flight
    recorder + SLO engine) on top of telemetry, evaluates the probes
    after the run, and fills :attr:`ChaosReport.observe`. The recorder
    auto-dumps on an invariant violation (to ``observe_dump_path`` when
    set, and on demand at end of run when a path is given);
    ``observe_export=True`` additionally keeps the run's full JSONL
    telemetry export on the report for trace reconstruction. The stack
    is read-only: an observed run's :func:`run_signature` is
    bit-identical to an unobserved one (gated by
    ``tests/test_sweep_fingerprints.py``).

    ``cache=True`` attaches the memoizing DGMS cache tier
    (:func:`repro.dfms.cache.attach_cache`); its TTLs tick in sim time
    and its invalidation is precise, so a cached run's signature must
    also be bit-identical — ``tests/test_sweep_fingerprints.py`` sweeps
    this against the pinned baseline.

    ``sanitize`` attaches the schedule sanitizer
    (:mod:`repro.analysis.sanitizer`) through :func:`start_sanitizer`.
    With permutation off the dispatch order is untouched, so a sanitized
    run's :func:`run_signature` stays bit-identical to an unsanitized
    one; the report gains :attr:`ChaosReport.sanitizer` and
    :attr:`ChaosReport.canonical`.
    """
    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1, n_events=n_events,
                            event_size=event_size, seed=seed)
    instrument_scenario(scenario)
    if cache:
        from repro.dfms.cache import attach_cache
        attach_cache(scenario.dgms)
    obs = None
    if observe:
        obs = attach_observability(scenario.env, server=scenario.server,
                                   dump_path=observe_dump_path)
    streams = RandomStreams(seed)
    dgms = scenario.dgms
    sanitizer = start_sanitizer(sanitize, scenario.env, streams, {
        "dgms.transfers": dgms.transfers, "dgms.namespace": dgms.namespace,
        "dgms.resources": dgms.resources, "server": scenario.server,
        "provenance": scenario.provenance})
    driver = None
    if faults:
        if schedule is None:
            schedule = FaultSchedule.random(streams, scenario.dgms, horizon,
                                            n_events=n_fault_events)
        driver = attach_faults(scenario.dgms, schedule, streams)
    service = None
    supervisor = None
    if recovery:
        service = attach_recovery(scenario.dgms, streams,
                                  policy=CHAOS_POLICY)
        supervisor = FlowSupervisor(scenario.server, streams,
                                    policy=CHAOS_POLICY, recovery=service)
    _run_workload(scenario, supervisor)
    makespan = scenario.env.now
    # Drain any fault windows still open past the workload's end so the
    # invariant check sees the restored (and fully accounted) grid.
    scenario.env.run()
    report = ChaosReport(
        seed=seed, faults=faults, recovery=recovery, makespan=makespan,
        faults_begun=driver.begun if driver else 0,
        faults_ended=driver.ended if driver else 0,
        interrupted_transfers=scenario.dgms.transfers.interrupted_count,
        restarts=supervisor.restarts if supervisor else 0,
        recovery_actions=dict(service.counts) if service else {},
        executions={execution.request_id: execution.state.value
                    for execution in scenario.server.executions()},
        signature=run_signature(scenario),
    )
    report.violations = _check_invariants(scenario, driver, service)
    finish_sanitizer(sanitizer, report,
                     lambda: canonical_signature(scenario))
    if obs is not None:
        report.observe = _observe_report(obs, report, observe_export)
    return report


def _observe_report(obs, report: ChaosReport,
                    export: bool) -> ObserveReport:
    """Evaluate the SLO probes and snapshot the recorder for one run."""
    from repro.telemetry.exporters import jsonl_lines
    from repro.telemetry.slo import fault_coverage

    obs.slo.evaluate()
    windows, uncovered = fault_coverage(obs.slo)
    recorder = obs.recorder
    if report.violations:
        recorder.record("chaos.invariant_violation",
                        {"seed": report.seed,
                         "violations": list(report.violations)})
        recorder.dump("invariant-violation")
    elif recorder.dump_path is not None:
        # CI's smoke job uploads the on-demand dump as an artifact.
        recorder.dump("on-demand")
    return ObserveReport(
        alerts=[{"probe": alert.probe, "severity": alert.severity,
                 "time": alert.time, "window": alert.window,
                 "value": alert.value, "threshold": alert.threshold,
                 "labels": dict(alert.labels), "message": alert.message}
                for alert in obs.slo.alerts],
        fault_windows=len(windows),
        uncovered_windows=list(uncovered),
        recorder_records=len(recorder.ring),
        recorder_dropped=recorder.dropped,
        dump_reason=recorder.last_dump_reason,
        dump_lines=list(recorder.last_dump),
        jsonl=jsonl_lines(obs.telemetry) if export else [],
    )


#: The CMS chaos scenario's harness.
CHAOS = ChaosHarness(run_chaos, 20)
default_chaos_seeds = CHAOS.seeds
run_chaos_sweep = CHAOS.sweep
prove_chaos_order_independence = CHAOS.prove
