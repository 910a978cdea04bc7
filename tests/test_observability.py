"""Tests for the flight recorder and the sim-time SLO engine.

Three layers: unit tests over the recorder ring and the individual
probes, integration over a live DfMS deployment (the ``dfms`` fixture),
and the chaos acceptance gates — an observed run's signature is
bit-identical to an unobserved one, every injected fault window raises
its alert (recall), and a clean run raises none (precision).
"""

import json

import pytest

from repro.dfms import ExecutionMonitor
from repro.dgl import DataGridRequest, ExecutionState, flow_builder
from repro.errors import SimError
from repro.provenance import ProvenanceStore, attach_to_server
from repro.sim import Environment
from repro.telemetry import SpanKind, attach_observability, attach_telemetry
from repro.telemetry.slo import (
    FaultWindowProbe,
    QueueDepthProbe,
    RecoveryPressureProbe,
    SLOEngine,
    StallProbe,
    TransferLatencyProbe,
    fault_coverage,
    quantile,
    window_series,
)
from repro.telemetry.trace import parse_jsonl
from repro.workloads import run_chaos


def submit(dfms, flow):
    return dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))


# -- flight recorder -------------------------------------------------------


def test_ring_is_bounded_and_counts_drops():
    env = Environment()
    obs = attach_observability(env, capacity=8)
    for index in range(20):
        obs.recorder.record("test.tick", {"index": index})
    assert len(obs.recorder.ring) == 8
    assert obs.recorder.dropped == 12
    # Oldest entries were evicted; the survivors are the last 8, in order.
    assert [record.seq for record in obs.recorder.ring] == list(range(12, 20))


def test_event_log_emit_tees_into_ring():
    env = Environment()
    obs = attach_observability(env)
    record = obs.telemetry.log.emit("fault.begin", fault="outage",
                                    target="l1")
    assert len(obs.recorder.ring) == 1
    captured = obs.recorder.ring[0]
    assert captured.kind == "fault.begin"
    assert captured.time == record.time
    assert captured.fields == {"fault": "outage", "target": "l1"}


def test_engine_listener_records_progress(dfms):
    obs = attach_observability(dfms.env, server=dfms.server)
    ack = submit(dfms, flow_builder("watched")
                 .step("a", "dgl.sleep", duration=2).build())
    dfms.env.run()
    kinds = [record.kind for record in obs.recorder.ring
             if record.kind.startswith("engine.")]
    assert "engine.execution_started" in kinds
    assert "engine.step_completed" in kinds
    assert "engine.execution_completed" in kinds
    started = next(record for record in obs.recorder.ring
                   if record.kind == "engine.execution_started")
    assert started.fields["request_id"] == ack.request_id


def test_records_link_to_spans():
    env = Environment()
    obs = attach_observability(env)
    tracer = obs.telemetry.tracer

    def worker():
        span = tracer.begin(SpanKind("work", ()), None, ())
        process = env.active_process
        process._tspan = span
        obs.telemetry.log.emit("test.inside")
        yield env.timeout(1.0)
        process._tspan = None
        tracer.finish(span)
        obs.telemetry.log.emit("test.outside")
        return span

    span_id = env.run_process(worker())
    inside, outside = obs.recorder.ring
    assert inside.span_id == span_id == tracer.finished[0].span_id
    assert inside.process == "worker"
    assert outside.span_id is None


def test_deadlock_auto_dumps():
    env = Environment()
    obs = attach_observability(env)

    def stuck():
        yield env.event()   # never triggered

    with pytest.raises(SimError):
        env.run_process(stuck())
    assert obs.recorder.last_dump_reason == "deadlock"
    assert obs.recorder.dump_count == 1
    payload = [json.loads(line) for line in obs.recorder.last_dump]
    assert payload[0]["type"] == "recorder"
    assert payload[0]["reason"] == "deadlock"
    deadlocks = [entry for entry in payload
                 if entry.get("kind") == "sim.deadlock"]
    assert len(deadlocks) == 1
    assert deadlocks[0]["process"] == "stuck"


def test_dump_writes_deterministic_jsonl(tmp_path):
    env = Environment()
    obs = attach_observability(env)
    obs.telemetry.log.emit("fault.begin", fault="outage", target="l1")
    obs.telemetry.log.emit("fault.end", fault="outage", target="l1")
    target = tmp_path / "dump.jsonl"
    first = obs.recorder.dump("on-demand", path=str(target))
    assert target.read_text().splitlines() == first
    second = obs.recorder.dump("on-demand", path=str(target))
    assert first == second
    header = json.loads(first[0])
    assert header["records"] == 2
    assert header["dropped"] == 0
    # A recorder dump parses with the same reader as a telemetry export.
    dump = parse_jsonl(first)
    assert dump.skipped == []
    assert [event["kind"] for event in dump.events] == [
        "fault.begin", "fault.end"]


def test_attach_observability_is_idempotent(dfms):
    first = attach_observability(dfms.env, server=dfms.server)
    listeners = len(dfms.server.engine.listeners)
    second = attach_observability(dfms.env, server=dfms.server)
    assert second.recorder is first.recorder
    assert second.slo is first.slo
    assert second.telemetry is first.telemetry
    assert len(dfms.server.engine.listeners) == listeners


def test_recorder_is_fed_only_through_the_session(dfms):
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    listeners = list(dfms.server.engine.listeners)
    # No server here: the recorder still hears the session's engine
    # events, because the session is its one feed.
    obs = attach_observability(dfms.env)
    assert dfms.server.engine.listeners == listeners
    assert obs.telemetry is telemetry
    submit(dfms, flow_builder("fed")
           .step("a", "dgl.sleep", duration=1).build())
    dfms.env.run()
    kinds = [record.kind for record in obs.recorder.ring]
    assert "engine.step_completed" in kinds
    assert "engine.execution_completed" in kinds


def test_each_engine_event_is_one_object(dfms):
    store = ProvenanceStore()
    attach_to_server(store, dfms.server)
    obs = attach_observability(dfms.env, server=dfms.server)
    monitor = ExecutionMonitor(dfms.server)
    watched = []
    monitor.watch(watched.append, kind="step_completed")
    submit(dfms, flow_builder("shared")
           .step("a", "dgl.sleep", duration=1).build())
    dfms.env.run()
    event, = watched
    # The store and the session read the event's one journal row; the
    # monitor, the one live listener, got the one EngineEvent.
    journal = dfms.env.journal
    rows = [row for row in range(len(journal))
            if journal.signatures[row][0] == "step_completed"]
    assert len(rows) == 1
    assert journal.signatures[rows[0]][1] is dfms.server.engine
    record = next(record for record in store.records()
                  if record.operation == "step_completed")
    assert record.detail == event.detail == {"operation": "dgl.sleep"}
    assert record.actor == event.user == dfms.alice.qualified_name
    # The recorder's live record and the export's folded record carry
    # the same fields, encoded once.
    live = next(entry for entry in obs.recorder.ring
                if entry.kind == "engine.step_completed")
    assert live.fields == {"request_id": event.request_id,
                           "key": event.instance_key, **event.detail}
    obs.telemetry.collect()
    folded, = [entry for entry in obs.telemetry.log.records
               if entry.kind == "engine.step_completed"]
    assert folded.fields is live.fields


# -- probe units -----------------------------------------------------------


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert quantile(values, 0.50) == 50
    assert quantile(values, 0.95) == 95
    assert quantile(values, 0.99) == 99
    assert quantile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_window_series_buckets_on_sim_time():
    series = window_series([(0.0, 1.0), (4.9, 2.0), (5.0, 3.0)], 5.0)
    assert series == {0: [1.0, 2.0], 1: [3.0]}


def test_fault_window_probe_pairs_begin_end():
    env = Environment()
    telemetry = attach_telemetry(env)

    def go():
        telemetry.log.emit("fault.begin", fault="outage", target="l1")
        yield env.timeout(3.0)
        telemetry.log.emit("fault.end", fault="outage", target="l1")
        # A second window left open: alerts with a provisional end.
        telemetry.log.emit("fault.begin", fault="outage", target="l1")
        yield env.timeout(2.0)

    env.run_process(go())
    engine = SLOEngine(telemetry, probes=[FaultWindowProbe()])
    alerts = engine.evaluate()
    assert [alert.window for alert in alerts] == [(0.0, 3.0), (3.0, 5.0)]
    assert all(alert.severity == "critical" for alert in alerts)
    windows, uncovered = fault_coverage(engine)
    assert len(windows) == 2
    assert uncovered == []


def test_transfer_latency_probe_flags_slow_windows():
    env = Environment()
    telemetry = attach_telemetry(env)
    telemetry.log.emit("net.transfer", src="a", dst="b", nbytes=1.0,
                       duration=30.0, links=["a--b"])
    telemetry.log.emit("net.transfer", src="a", dst="b", nbytes=1.0,
                       duration=0.5, links=["a--b"])
    engine = SLOEngine(
        telemetry,
        probes=[TransferLatencyProbe(p99_threshold_s=20.0, window_s=5.0)])
    alerts = engine.evaluate()
    assert len(alerts) == 1
    assert dict(alerts[0].labels) == {"link": "a--b"}
    assert alerts[0].value == 30.0


def test_recovery_pressure_budget():
    env = Environment()
    telemetry = attach_telemetry(env)
    telemetry.log.emit("recovery.retry", attempt=1)
    telemetry.log.emit("recovery.failover", attempt=1)
    tight = SLOEngine(telemetry,
                      probes=[RecoveryPressureProbe(max_actions=0)])
    alerts = tight.evaluate()
    assert len(alerts) == 1
    assert alerts[0].value == 2.0
    slack = SLOEngine(telemetry,
                      probes=[RecoveryPressureProbe(max_actions=2)])
    slack._seen = set()
    assert slack.evaluate() == []


def test_queue_depth_probe_reads_kernel_lanes():
    env = Environment()
    telemetry = attach_telemetry(env)
    env.timeout(5.0)
    env.timeout(6.0)
    engine = SLOEngine(telemetry, probes=[QueueDepthProbe(max_depth=1)])
    alerts = engine.evaluate()
    assert len(alerts) == 1
    assert alerts[0].value == 2.0
    calm = SLOEngine(telemetry, probes=[QueueDepthProbe(max_depth=100)])
    calm._seen = set()
    assert calm.evaluate() == []


class _StubExecution:
    def __init__(self, request_id, state, submitted_at):
        self.request_id = request_id
        self.state = state
        self.submitted_at = submitted_at


class _StubServer:
    def __init__(self, *executions):
        self._executions = list(executions)

    def executions(self):
        return self._executions


def test_stall_probe_flags_quiet_live_executions():
    env = Environment()
    telemetry = attach_telemetry(env)
    telemetry.log.emit("engine.step_started", request_id="live", key="a")
    server = _StubServer(
        _StubExecution("live", ExecutionState.RUNNING, 0.0),
        _StubExecution("fresh", ExecutionState.RUNNING, 0.0),
        _StubExecution("done", ExecutionState.COMPLETED, 0.0))
    engine = SLOEngine(telemetry, probes=[StallProbe(max_quiet_s=30.0)],
                       server=server)
    # 'live' saw its last engine event at t=0 and is judged at t=50:
    # quiet for 50s > 30s budget. 'fresh' never emitted, so its clock
    # starts at submission — also t=0, also stalled. 'done' is terminal.
    alerts = engine.evaluate(now=50.0)
    assert sorted(dict(alert.labels)["request_id"]
                  for alert in alerts) == ["fresh", "live"]
    assert all(alert.severity == "critical" for alert in alerts)
    # Judged again inside the budget, nothing is stalled *now*.
    calm = SLOEngine(telemetry, probes=[StallProbe(max_quiet_s=30.0)],
                     server=server)
    assert calm.evaluate(now=10.0) == []


def test_stall_probe_is_inert_without_a_server():
    env = Environment()
    telemetry = attach_telemetry(env)
    engine = SLOEngine(telemetry, probes=[StallProbe(max_quiet_s=0.0)])
    assert engine.evaluate(now=100.0) == []


# -- the engine ------------------------------------------------------------


def test_evaluate_is_idempotent_per_breach():
    env = Environment()
    telemetry = attach_telemetry(env)
    telemetry.log.emit("fault.begin", fault="outage", target="l1")
    telemetry.log.emit("fault.end", fault="outage", target="l1")
    engine = SLOEngine(telemetry, probes=[FaultWindowProbe()])
    assert len(engine.evaluate()) == 1
    assert engine.evaluate() == []
    assert len(engine.alerts) == 1


def test_alerts_are_exported_as_events_and_counted():
    env = Environment()
    telemetry = attach_telemetry(env)
    telemetry.log.emit("fault.begin", fault="outage", target="l1")
    telemetry.log.emit("fault.end", fault="outage", target="l1")
    engine = SLOEngine(telemetry, probes=[FaultWindowProbe()])
    engine.evaluate()
    events = telemetry.log.of_kind("slo.alert")
    assert len(events) == 1
    assert events[0].fields["probe"] == "fault-window"
    assert events[0].fields["severity"] == "critical"
    series = dict(engine.counter.series())
    assert series[("fault-window",)].value == 1


# -- chaos acceptance ------------------------------------------------------


def test_observed_chaos_run_is_bit_identical():
    plain = run_chaos(3)
    observed = run_chaos(3, observe=True)
    assert plain.signature == observed.signature
    assert plain.recovery_actions == observed.recovery_actions


def test_chaos_fault_windows_have_full_recall():
    report = run_chaos(3, observe=True)
    assert report.ok, report.violations
    assert report.observe.fault_windows == 6
    assert report.observe.uncovered_windows == []
    critical = [alert for alert in report.observe.alerts
                if alert["probe"] == "fault-window"]
    assert len(critical) == 6


def test_clean_chaos_run_raises_no_alerts():
    report = run_chaos(0, faults=False, observe=True)
    assert report.ok
    assert report.observe.alerts == []
    assert report.observe.fault_windows == 0


def test_chaos_dump_path_produces_a_parsable_artifact(tmp_path):
    target = tmp_path / "flight-recorder.jsonl"
    report = run_chaos(3, observe=True, observe_dump_path=str(target))
    assert report.observe.dump_reason == "on-demand"
    lines = target.read_text().splitlines()
    assert lines == report.observe.dump_lines
    dump = parse_jsonl(lines)
    assert dump.skipped == []
    assert json.loads(lines[0])["records"] == report.observe.recorder_records
