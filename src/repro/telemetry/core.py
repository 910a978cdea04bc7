"""The telemetry session facade.

One :class:`Telemetry` object bundles the three surfaces — metrics,
tracing spans, structured event log — behind a single handle that hangs
off the simulation :class:`~repro.sim.kernel.Environment` as
``env.telemetry``. Instrumented subsystems read that attribute and guard
on ``None``, so a run without telemetry pays one attribute load and a
branch per instrumentation point (measured in
``benchmarks/test_e19_telemetry.py``) and nothing else.

The sim kernel is the one subsystem too hot for *any* per-event
instrumentation, so its event loop carries none: scheduled/fired counts
are derived at export time from bookkeeping the kernel already does
(its monotonic event id and the heap length — see
:attr:`Telemetry.sim_scheduled`). Only process *completion* records
anything (a single lifetime sample).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Tuple

from repro.telemetry.events import (EventLog, TelemetryRecord,
                                   engine_fields, transfer_fields)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Metrics + tracer + event log, all clocked on one environment."""

    def __init__(self, env) -> None:
        self.env = env
        # The one shared clock. partial(getattr, ...) stays in C — no
        # Python frame per timestamp, unlike a lambda.
        clock = partial(getattr, env, "_now")
        self.metrics = MetricsRegistry(clock)
        self.tracer = Tracer(clock)
        self.log = EventLog(clock)

        # -- sim kernel: derived from its own bookkeeping at collect() ----
        #: Kernel event id and heap length at attach time; collect()
        #: subtracts these so counts start at zero per session.
        self._eid_at_attach = env._eid
        self._queued_at_attach = self._queued()
        metric = self.metrics
        #: The lifetime histogram's bound column appends, ``(time,
        #: value)``: the kernel hoists this pair onto the environment and
        #: appends each completed process's (sim_time, lifetime_seconds)
        #: through it; collect() folds the columns into buckets
        #: (Histogram defers bucket work to export for exactly this
        #: reason).
        self.sim_process_lifetimes: Tuple[Callable, Callable] = (
            metric.histogram(
                "sim_process_lifetime_seconds",
                "Virtual lifetime of completed simulation processes")
            .appends)
        # -- DfMS engine ---------------------------------------------------
        self.dfms_engine_events = metric.counter(
            "dfms_engine_events_total",
            "Engine progress events, by kind", ["kind"])
        self.dfms_step_retries = metric.counter(
            "dfms_step_retries_total",
            "Step operation retries taken by onError fault handling")
        self.dfms_step_duration = metric.histogram(
            "dfms_step_duration_seconds",
            "Virtual-time duration of completed steps")
        # -- ILM engine ----------------------------------------------------
        self.ilm_passes = metric.counter(
            "ilm_passes_total", "Policy passes submitted", ["policy"])
        self.ilm_apply = metric.counter(
            "ilm_apply_total",
            "Per-object policy evaluations, by outcome",
            ["policy", "outcome"])
        self.ilm_actions = metric.counter(
            "ilm_actions_total",
            "Placement actions performed, by rule and outcome",
            ["policy", "rule", "outcome"])
        # -- trigger manager -----------------------------------------------
        self.trigger_events = metric.counter(
            "trigger_events_total", "Namespace events seen by the manager")
        self.trigger_evals = metric.counter(
            "trigger_condition_evals_total",
            "Trigger condition evaluations")
        self.trigger_firings = metric.counter(
            "trigger_firings_total",
            "Condition-met trigger activations", ["trigger"])
        self.trigger_conflicts = metric.counter(
            "trigger_ordering_conflicts_total",
            "Events matched by more than one trigger (order-dependent)")
        # -- network transfers ---------------------------------------------
        self.net_transfers = metric.counter(
            "net_transfers_total", "Completed transfers", ["scope"])
        self.net_transfers_wan = self.net_transfers.labels(scope="wan")
        self.net_transfers_local = self.net_transfers.labels(scope="local")
        self.net_bytes = metric.counter(
            "net_bytes_moved_total", "Bytes moved across WAN links")
        self.net_transfer_duration = metric.histogram(
            "net_transfer_duration_seconds",
            "Virtual-time duration of completed WAN transfers")
        self.net_link_utilization = metric.gauge(
            "net_link_utilization_ratio",
            "Fraction of a link's bandwidth in use", ["link"])
        # -- faults & recovery ---------------------------------------------
        self.fault_events = metric.counter(
            "fault_events_total",
            "Fault-window transitions driven by a fault schedule",
            ["kind", "phase"])
        self.recovery_actions = metric.counter(
            "recovery_actions_total",
            "Recovery actions (retry / resume / failover / restart)",
            ["kind"])
        # -- schedule sanitizer (dgfsan) -----------------------------------
        self.sanitizer_batches = metric.counter(
            "sanitizer_batches_total",
            "Same-timestamp batches inspected by the schedule sanitizer")
        self.sanitizer_races = metric.counter(
            "sanitizer_races_total",
            "Schedule races reported, by conflict class", ["kind"])
        # -- catalog query planner -----------------------------------------
        self.catalog_queries = metric.counter(
            "catalog_queries_total",
            "Datagrid queries, by planner access path", ["access_path"])
        self.catalog_candidates = metric.counter(
            "catalog_candidates_examined_total",
            "Candidate objects examined while answering queries")
        # -- DfMS gateway (admission + queueing) ---------------------------
        self.gateway_queue_depth = metric.gauge(
            "gateway_queue_depth",
            "Requests admitted but not yet dequeued by a worker",
            ["gateway"])
        self.gateway_admitted = metric.counter(
            "gateway_admitted_total",
            "Requests admitted into the gateway queue", ["gateway"])
        self.gateway_shed = metric.counter(
            "gateway_shed_total",
            "Requests refused before admission, by reason",
            ["gateway", "reason"])
        self.gateway_queue_wait = metric.histogram(
            "gateway_queue_wait_seconds",
            "Virtual time from admission to dequeue", ["gateway"])
        self.gateway_coalesced = metric.counter(
            "gateway_coalesced_total",
            "Duplicate same-instant status polls answered from one "
            "server call", ["gateway"])
        # -- DGMS cache tier -----------------------------------------------
        self.cache_requests = metric.counter(
            "dgms_cache_requests_total",
            "Cache-tier lookups, by surface and outcome",
            ["surface", "outcome"])
        self.cache_invalidations = metric.counter(
            "dgms_cache_invalidations_total",
            "Cache entries dropped by precise invalidation, by cause",
            ["cause"])
        # -- federation (RLS + cross-zone copies) --------------------------
        self.rls_lookups = metric.counter(
            "rls_lookups_total",
            "Replica location lookups, by outcome", ["outcome"])
        self.rls_shards_touched = metric.counter(
            "rls_shards_touched_total",
            "Index shards consulted across all lookups")
        self.rls_digest_checks = metric.counter(
            "rls_digest_checks_total",
            "Zone-digest membership tests, by outcome", ["outcome"])
        self.rls_staleness = metric.histogram(
            "rls_digest_staleness_seconds",
            "Age of the oldest digest consulted per lookup")
        self.federation_copies = metric.counter(
            "federation_copies_total",
            "Cross-zone copies, by outcome", ["outcome"])
        self.federation_bridge_bytes = metric.counter(
            "federation_bridge_bytes_total",
            "Bytes carried across inter-zone bridges")
        # Per-kind engine counter cache: the deferred engine events fold
        # (collect) skips the labels() keyword plumbing on repeat kinds.
        self._engine_kind_counters = {}
        #: Engine events not yet materialized into counters and log
        #: records — engine_listener keeps the engine's own record here.
        self._engine_pending = []
        #: Completed TransferStats not yet materialized — the transfer
        #: service hands over the stats object it already built and
        #: collect() derives counters, samples, and log records. With a
        #: recorder attached, both pending lists hold ``(item, fields)``
        #: pairs instead, so each record's fields are encoded once.
        self.net_pending = []
        #: Callbacks run by :meth:`collect` — subsystems whose state is
        #: only worth gauging at export time (e.g. link utilization)
        #: register one instead of updating gauges on their hot path.
        self.collectors = []
        #: Attached :class:`~repro.telemetry.recorder.FlightRecorder`
        #: (None by default; set by ``attach_observability``), fed only
        #: by this session. The kernel reaches it duck-typed on deadlock.
        self.recorder = None
        #: Attached :class:`~repro.telemetry.slo.SLOEngine`, or None.
        self.slo = None

    # -- sim kernel (derived) ------------------------------------------------

    def _queued(self) -> int:
        """Events waiting in any of the kernel's three scheduling lanes
        (future heap, current-timestamp FIFO, urgent FIFO)."""
        env = self.env
        return (len(env._queue) + len(env._current) + len(env._urgent))

    @property
    def sim_scheduled(self) -> int:
        """Events scheduled onto the kernel's lanes since attach.

        The kernel's monotonic event id *is* a push counter, so this
        costs the kernel nothing per event.
        """
        return self.env._eid - self._eid_at_attach

    @property
    def sim_fired(self) -> int:
        """Events popped and processed since attach.

        Pops = pushes minus what is still queued (events queued before
        attach and fired after count as fired, hence the baseline).
        """
        return self.sim_scheduled - (self._queued() - self._queued_at_attach)

    # -- engine event bus ----------------------------------------------------

    def engine_listener(self, event) -> None:
        """`FlowEngine.listeners` subscriber: one emission path for all.

        Attached by :func:`~repro.telemetry.instrument.attach_telemetry`
        next to any :class:`~repro.dfms.monitoring.ExecutionMonitor`, so
        push-watchers, metrics, and the event log all observe the same
        stream. Runs twice per step, so it only keeps the engine's
        :class:`~repro.dfms.engine.EngineEvent`; counters and log records
        are materialized by :meth:`collect`. A flight recorder cannot
        defer (a crash dump must already hold the event), so with one
        attached the fields are encoded here, once: the pending entry is
        then the plain ``(event, fields)`` pair the fold reuses.
        """
        recorder = self.recorder
        if recorder is None:
            self._engine_pending.append(event)
            return
        fields = engine_fields(event)
        recorder.record("engine." + event.kind, fields)
        self._engine_pending.append((event, fields))

    def transfer_completed(self, stats) -> None:
        """Transfer-service hook: deferred like :meth:`engine_listener`."""
        recorder = self.recorder
        if recorder is None:
            self.net_pending.append(stats)
            return
        fields = transfer_fields(stats)
        recorder.record("net.transfer", fields)
        self.net_pending.append((stats, fields))

    def fold_log(self) -> None:
        """Materialize the deferred engine events and transfer completions
        into counters and the event log, and keep the log in sim-time
        order: what log readers such as the SLO probes need.
        :meth:`collect` does this too, and then folds the metrics."""
        if not (self._engine_pending or self.net_pending):
            return
        self._fold_engine_events()
        self._fold_net_transfers()
        # Live emitters (ILM, triggers) interleave with the deferred
        # folds above; restore sim-time order (stable, so same-time
        # records keep their emission order). Live emits stamp the
        # current time, so the log stays ordered until the next fold.
        self.log.records.sort(key=itemgetter(0))

    def _fold_engine_events(self) -> None:
        """Materialize pending engine bus events (counters + log)."""
        pending = self._engine_pending
        if not pending:
            return
        records = self.log.records
        kind_counters = self._engine_kind_counters
        for event in pending:
            # A plain tuple is an (event, fields) pair the recorder
            # already holds; an EngineEvent is a NamedTuple subclass.
            if type(event) is tuple:
                event, fields = event
            else:
                fields = engine_fields(event)
            kind = event.kind
            cached = kind_counters.get(kind)
            if cached is None:
                cached = (self.dfms_engine_events.labels(kind=kind),
                          f"engine.{kind}")
                kind_counters[kind] = cached
            counter, log_kind = cached
            counter.value += 1.0
            counter.last_updated = event.time
            records.append(tuple.__new__(TelemetryRecord, (
                event.time, log_kind, fields)))
        del pending[:]

    def _fold_net_transfers(self) -> None:
        """Materialize pending transfer completions (counters + log)."""
        pending = self.net_pending
        if not pending:
            return
        records = self.log.records
        wan = self.net_transfers_wan
        local = self.net_transfers_local
        moved = self.net_bytes
        add_time, add_value = self.net_transfer_duration.appends
        for stats in pending:
            if type(stats) is tuple:   # (stats, fields) already encoded
                stats, fields = stats
            else:
                fields = transfer_fields(stats)
            now = stats.end_time
            if stats.hops:
                wan.value += 1.0
                wan.last_updated = now
                moved.value += stats.nbytes
                moved.last_updated = now
                add_time(now)
                add_value(stats.duration)
            else:
                local.value += 1.0
                local.last_updated = now
            records.append(tuple.__new__(TelemetryRecord, (
                now, "net.transfer", fields)))
        del pending[:]

    # -- export-time folding -------------------------------------------------

    def collect(self) -> MetricsRegistry:
        """Fold every deferred surface and return the metrics registry.

        Runs collectors, derives the kernel's counters, materializes
        pending engine events, and folds histogram samples (process
        lifetimes included) into their buckets. Idempotent — exporters
        call it every time they render.
        """
        for collector in self.collectors:
            collector()
        self.fold_log()
        metric = self.metrics
        metric.counter(
            "sim_events_scheduled_total",
            "Events scheduled onto the kernel's lanes").value = float(
                self.sim_scheduled)
        metric.counter(
            "sim_events_fired_total",
            "Events popped and processed").value = float(self.sim_fired)
        metric.gauge(
            "sim_queue_depth",
            "Events waiting on the kernel's lanes right now").value = float(
                self._queued())
        for instrument in metric.metrics():
            if instrument.kind == "histogram":
                for _, series in instrument.series():
                    series._fold()
        return metric
