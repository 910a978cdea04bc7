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

Engine events and finished transfers cost the session nothing as they
happen either: they are rows of the environment's run journal
(:mod:`repro.sim.journal`), shared with provenance, and the session
keeps no object per event. :meth:`Telemetry.fold_log` reads the rows
that arrived since its cursor into counters, duration samples and log
records, in one fixed order: the new engine records in arrival order,
then the new transfer records in arrival order, then a stable sort of
the log by sim time. With a flight recorder attached, a journal tap
(:meth:`Telemetry.tee`) encodes each such row's fields once as it
arrives; the ring and the later folded record share that dict, and the
fold takes the rows the tap saw from its stash instead of scanning the
journal for them.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Dict, Optional, Tuple

from repro.telemetry.events import EventLog, TelemetryRecord
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
        # Per-kind engine counter cache: the fold (collect) skips the
        # labels() keyword plumbing on repeat kinds.
        self._engine_kind_counters = {}
        #: The environment's run journal and the first row this session
        #: has not folded yet. Engine events of the engines the session
        #: is enrolled with (:attr:`engines`), and transfers that finish
        #: while it is attached, are rows there until :meth:`fold_log`.
        self.journal = env.journal
        self._cursor = len(self.journal)
        #: The engines this session is enrolled with, each with the
        #: first of its rows the session folds (its enrollment).
        self.engines: Dict[object, int] = {}
        #: Fields a flight recorder already holds, by journal row in
        #: arrival order, until the fold puts them in the log: each is
        #: encoded once. :meth:`tee` fills it from row ``_teed_from`` on
        #: (None while it does not run), so the fold reads those rows'
        #: fields from here instead of scanning the rows again.
        self._encoded: Dict[int, Dict[str, object]] = {}
        self._teed_from: Optional[int] = None
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
        """This session's entry in ``FlowEngine.listeners``, put there by
        :meth:`enroll` next to any
        :class:`~repro.dfms.monitoring.ExecutionMonitor`, so push-watchers,
        metrics, and the event log all observe the same stream.

        The engine never calls a row reader's entry: it writes each event
        as a journal row, and :meth:`fold_log` turns the rows into
        counters and log records.
        """

    def enroll(self, engine) -> None:
        """Fold ``engine``'s events from now on (idempotent)."""
        engine.enroll(self.engine_listener)
        self.engines.setdefault(engine, len(self.journal))

    def attach_recorder(self, recorder) -> None:
        """Feed ``recorder`` every log record from now on, and every
        engine event and transfer this session folds, through :meth:`tee`.
        """
        self.recorder = recorder
        self.log.recorder = recorder
        self._teed_from = len(self.journal)
        self.journal.taps.append(self.tee)

    def tee(self, row: int) -> None:
        """Journal tap while a flight recorder is attached: a crash dump
        cannot wait for the fold, so each engine event and transfer this
        session folds is encoded as it arrives, recorded, and kept for
        the fold, which logs the same fields.

        It encodes an engine row inline, as :meth:`_engine_fields` does:
        it runs for most rows of an observed run, and in three
        interleaved best-of-20 timings of chaos seeds 0-5 (2-vCPU host)
        the inline form read 0.6 to 3.0 points less overhead than a call.
        """
        journal = self.journal
        kind, source, user, operation = journal.signatures[row]
        if source in self.engines:
            kind = "engine." + kind
            fields = {"request_id": journal.subjects[row],
                      "key": journal.keys[row]}
            detail = journal.details[row]
            if detail is not None:
                fields.update(detail)
            elif operation is not None:
                fields["operation"] = operation
        elif user is self:
            kind, fields = "net.transfer", self._transfer_fields(row)
        else:
            return
        self.recorder.record(kind, fields)
        self._encoded[row] = fields

    def _engine_fields(self, row: int) -> Dict[str, object]:
        """Fields of the ``engine.<kind>`` record of engine row ``row``
        (:meth:`tee` encodes the same inline)."""
        journal = self.journal
        fields = {"request_id": journal.subjects[row],
                  "key": journal.keys[row]}
        detail = journal.details[row]
        if detail is not None:
            fields.update(detail)
        else:
            operation = journal.signatures[row][3]
            if operation is not None:
                fields["operation"] = operation
        return fields

    def _transfer_fields(self, row: int) -> Dict[str, object]:
        """Fields of the ``net.transfer`` record of transfer row ``row``."""
        journal = self.journal
        route = journal.signatures[row][3]
        return {"src": journal.subjects[row], "dst": journal.keys[row],
                "nbytes": journal.details[row], "hops": len(route),
                "links": list(route),
                "duration": journal.ends[row] - journal.starts[row]}

    def fold_log(self) -> None:
        """Materialize the engine events and transfer completions that
        arrived since the last fold into counters and the event log, and
        keep the log in sim-time order: what log readers such as the SLO
        probes need. :meth:`collect` does this too, and then folds the
        metrics.

        The order is the one log readers and the JSONL pins rely on: the
        new engine records in arrival order, then the new transfer
        records in arrival order, then a stable sort by time. Live
        emitters (ILM, triggers) stamp the current time, so the log stays
        ordered until the next fold, and a same-time live record stays
        ahead of folded ones.
        """
        journal = self.journal
        start, stop = self._cursor, len(journal)
        if start == stop:
            return
        self._cursor = stop
        records = self.log.records
        before = len(records)
        teed_from = self._teed_from
        scanned = stop if teed_from is None else max(start, min(stop,
                                                                teed_from))
        transfers: list = []
        self._fold_engine_rows(self._scan(start, scanned, transfers))
        encoded, self._encoded = self._encoded, {}
        if encoded:
            signatures = journal.signatures
            teed = []
            for row, fields in encoded.items():
                if signatures[row][2] is self:
                    transfers.append(row)
                else:
                    teed.append((row, fields))
            self._fold_engine_rows(teed)
        if transfers:
            self._fold_transfer_rows(transfers, encoded)
        if len(records) > before:
            records.sort(key=itemgetter(0))

    def _scan(self, start: int, stop: int, transfers: list):
        """Yield ``(row, None)`` for each engine row this session folds
        among rows ``start:stop``, and add the transfer rows it folds to
        ``transfers``: the rows :meth:`tee` did not see."""
        signatures = self.journal.signatures
        engines = self.engines
        for row in range(start, stop):
            _, source, user, _ = signatures[row]
            since = engines.get(source)
            if since is not None and row >= since:
                yield row, None
            elif user is self:
                transfers.append(row)

    def _fold_engine_rows(self, pairs) -> None:
        """Materialize engine rows (counters + log) from ``(row,
        fields)`` pairs, encoding the fields that are None."""
        journal = self.journal
        signatures, starts = journal.signatures, journal.starts
        encode = self._engine_fields
        append = self.log.records.append
        kind_counters = self._engine_kind_counters
        for row, fields in pairs:
            if fields is None:
                fields = encode(row)
            kind = signatures[row][0]
            cached = kind_counters.get(kind)
            if cached is None:
                cached = (self.dfms_engine_events.labels(kind=kind),
                          f"engine.{kind}")
                kind_counters[kind] = cached
            counter, log_kind = cached
            time = starts[row]
            counter.value += 1.0
            counter.last_updated = time
            append(tuple.__new__(TelemetryRecord, (time, log_kind, fields)))

    def _fold_transfer_rows(self, transfers: list,
                            encoded: Dict[int, Dict[str, object]]) -> None:
        """Materialize transfer rows (counters, samples, log), with the
        fields :meth:`tee` encoded for them, if any."""
        journal = self.journal
        signatures, details = journal.signatures, journal.details
        starts, ends = journal.starts, journal.ends
        append = self.log.records.append
        wan = self.net_transfers_wan
        local = self.net_transfers_local
        moved = self.net_bytes
        add_time, add_value = self.net_transfer_duration.appends
        for row in transfers:
            fields = encoded.get(row) or self._transfer_fields(row)
            now = ends[row]
            if signatures[row][3]:
                wan.value += 1.0
                wan.last_updated = now
                moved.value += details[row]
                moved.last_updated = now
                add_time(now)
                add_value(now - starts[row])
            else:
                local.value += 1.0
                local.last_updated = now
            append(tuple.__new__(TelemetryRecord, (
                now, "net.transfer", fields)))

    # -- export-time folding -------------------------------------------------

    def collect(self) -> MetricsRegistry:
        """Fold every deferred surface and return the metrics registry.

        Runs collectors, derives the kernel's counters, folds the
        journal rows since the last fold, and folds histogram samples
        (process
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
