"""Tests for the unified telemetry layer (metrics, spans, exporters)."""

import json

import pytest

from repro.dfms.cache import attach_cache
from repro.errors import ReproError
from repro.dgl import DataGridRequest, flow_builder
from repro.dgl.model import Operation
from repro.grid.events import EventKind
from repro.grid.query import Query, parse_conditions
from repro.ilm import ILMManager, imploding_star_policy
from repro.network import Topology, TransferService
from repro.sim import Environment
from repro.storage import MB
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    SpanKind,
    Tracer,
    attach_telemetry,
    jsonl_lines,
    prometheus_text,
)
from repro.triggers import DatagridTrigger, TriggerManager


# -- metrics primitives ---------------------------------------------------

def test_counter_labels_and_monotonicity():
    registry = MetricsRegistry(lambda: 42.0)
    counter = registry.counter("events_total", "things", ["kind"])
    counter.labels(kind="a").inc()
    counter.labels(kind="a").inc(2)
    counter.labels(kind="b").inc()
    series = dict(counter.series())
    assert series[("a",)].value == 3.0
    assert series[("b",)].value == 1.0
    assert series[("a",)].last_updated == 42.0
    with pytest.raises(ReproError):
        counter.labels(kind="a").inc(-1)
    with pytest.raises(ReproError):
        counter.labels(wrong="a")


def test_bound_children_are_created_on_first_use():
    registry = MetricsRegistry(lambda: 7.0)
    counter = registry.counter("copies_total", "copies", ["outcome"])
    pairs = registry.counter("pairs_total", "pairs", ["a", "b"])
    assert registry.counter("plain_total").bound is None
    assert counter.series() == []
    child = counter.bound["completed"]
    assert counter.series() == [(("completed",), child)]
    assert child.value == 0.0
    child.inc()
    assert counter.bound["completed"] is child
    assert counter.labels(outcome="completed") is child
    pairs.bound["x", "y"].inc(2)
    assert dict(pairs.series())[("x", "y")].value == 2.0
    assert pairs.labels(a="x", b="y") is pairs.bound["x", "y"]
    with pytest.raises(ReproError, match="takes labels"):
        pairs.bound["x"]
    assert dict(pairs.series()).keys() == {("x", "y")}


def test_labels_with_wrong_names_still_raise():
    registry = MetricsRegistry(lambda: 0.0)
    counter = registry.counter("copies_total", "copies", ["outcome"])
    with pytest.raises(ReproError) as missing:
        counter.labels(result="completed")
    assert str(missing.value) == (
        "metric 'copies_total' takes labels ('outcome',), "
        "got ('result',)")
    with pytest.raises(ReproError) as extra:
        counter.labels(outcome="completed", zone="z0")
    assert str(extra.value) == (
        "metric 'copies_total' takes labels ('outcome',), "
        "got ('outcome', 'zone')")
    assert counter.series() == []


def test_registry_identity_and_type_conflicts():
    registry = MetricsRegistry(lambda: 0.0)
    first = registry.counter("x_total")
    assert registry.counter("x_total") is first
    assert registry.get("x_total") is first
    with pytest.raises(ReproError):
        registry.gauge("x_total")


def test_gauge_up_and_down():
    registry = MetricsRegistry(lambda: 1.0)
    gauge = registry.gauge("depth")
    gauge.set(5)
    gauge.dec(2)
    assert gauge.value == 3.0


def test_histogram_buckets_and_samples():
    clock = [0.0]
    registry = MetricsRegistry(lambda: clock[0])
    histogram = registry.histogram("lat", buckets=(1.0, 10.0))
    for when, value in ((1.0, 0.5), (2.0, 1.0), (3.0, 5.0), (4.0, 100.0)):
        clock[0] = when
        histogram.observe(value)
    # le=1.0 catches 0.5 and the exact boundary 1.0; le=10 adds 5.0;
    # 100.0 lands in the overflow bucket.
    assert histogram.bucket_counts == [2, 1, 1]
    assert histogram.count == 4
    assert histogram.sum == 106.5
    assert histogram.samples == [(1.0, 0.5), (2.0, 1.0), (3.0, 5.0),
                                 (4.0, 100.0)]


# -- tracer ---------------------------------------------------------------

def test_spans_nest_within_one_context():
    tracer = Tracer(lambda: 7.0)
    outer = tracer.begin(SpanKind("outer", ("kind",)), None, ("demo",))
    inner = tracer.begin(SpanKind("inner", ()), outer, ())
    tracer.finish(inner)
    tracer.finish(outer, status="error")
    spans = {span.span_id: span for span in tracer.finished}
    assert spans[outer].parent_id is None
    assert spans[inner].parent_id == spans[outer].span_id
    assert [span.name for span in tracer.finished] == ["inner", "outer"]
    assert spans[outer].status == "error"
    assert spans[outer].attrs == {"kind": "demo"}
    # Ending twice is a no-op, ids are deterministic.
    tracer.finish(outer)
    assert len(tracer.finished) == 2
    assert tracer.finished[1].status == "error"
    assert tracer.finished[1].span_id == outer == 1


# -- event log ------------------------------------------------------------

def test_event_log_stamps_and_filters():
    clock = [3.5]
    log = EventLog(lambda: clock[0])
    log.emit("engine.step_started", key="a")
    clock[0] = 9.0
    log.emit("net.transfer", nbytes=10)
    assert len(log) == 2
    assert log.of_kind("net.transfer")[0].time == 9.0
    assert log.records[0].fields == {"key": "a"}


# -- wiring ---------------------------------------------------------------

def test_attach_is_idempotent(dfms):
    first = attach_telemetry(dfms.env, server=dfms.server)
    second = attach_telemetry(dfms.env, server=dfms.server)
    assert first is second
    assert dfms.server.engine.listeners.count(first.engine_listener) == 1
    assert dfms.env.telemetry is first


def test_disabled_by_default(dfms):
    assert dfms.env.telemetry is None
    flow = (flow_builder("plain")
            .step("put", "srb.put", path="/home/alice/p.dat",
                  size=MB, resource="sdsc-disk")
            .build())
    response = dfms.submit_sync(flow)
    assert response.body.state.value == "completed"


# -- engine spans ---------------------------------------------------------

def _ingest_flow(name="ingest", path="/home/alice/t.dat"):
    return (flow_builder(name)
            .step("put", "srb.put", path=path, size=5 * MB,
                  resource="sdsc-disk")
            .step("rep", "srb.replicate", path=path,
                  resource="ucsd-disk")
            .build())


def test_flow_run_produces_nested_spans(dfms):
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    response = dfms.submit_sync(_ingest_flow())
    assert response.body.state.value == "completed"

    spans = {span.span_id: span for span in telemetry.tracer.finished}
    by_name = {}
    for span in spans.values():
        by_name.setdefault(span.name, []).append(span)
    execution = by_name["execution"][0]
    assert execution.parent_id is None
    assert execution.status == "ok"
    flow_span = by_name["flow"][0]
    assert flow_span.parent_id == execution.span_id
    step_spans = {span.attrs["key"]: span for span in by_name["step"]}
    assert set(step_spans) == {"put", "rep"}
    assert all(span.parent_id == flow_span.span_id
               for span in step_spans.values())
    # The replicate step crossed the WAN: its transfer span must nest
    # under the step that started it (flow -> step -> transfer).
    wan = [span for span in by_name["transfer"] if span.attrs["hops"] > 0]
    assert wan and wan[0].parent_id == step_spans["rep"].span_id
    assert all(span.end >= span.start for span in spans.values())


def test_step_failure_marks_span(dfms):
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    flow = (flow_builder("doomed")
            .step("bad", "dgl.fail", message="kaput")
            .build())
    response = dfms.submit_sync(flow)
    assert response.body.state.value == "failed"
    statuses = {span.name: span.status
                for span in telemetry.tracer.finished}
    assert statuses["step"] == "error"
    assert statuses["execution"] == "failed"


def test_step_duration_samples_each_pass_of_a_looped_step(dfms):
    # A looped step's status keeps its first start; each sample times
    # its own pass, as its span does.
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    flow = (flow_builder("naps").repeat(3)
            .step("nap", "dgl.sleep", duration=2)
            .build())
    assert dfms.submit_sync(flow).body.state.value == "completed"
    assert telemetry.dfms_step_duration.samples == [
        (2.0, 2.0), (4.0, 2.0), (6.0, 2.0)]
    assert [span.duration for span in telemetry.tracer.finished
            if span.name == "step"] == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("replace", [False, True])
def test_spans_close_in_the_session_that_opened_them(dfms, replace):
    # Detaching or replacing telemetry while a flow runs neither fails
    # the flow nor moves its open spans into the new session.
    first = attach_telemetry(dfms.env, server=dfms.server)
    flow = flow_builder("nap").step("nap", "dgl.sleep", duration=2).build()
    ack = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))

    def scenario():
        yield dfms.env.timeout(1.0)
        dfms.env.telemetry = None
        if replace:
            attach_telemetry(dfms.env)
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    assert dfms.server.status(ack.request_id).state.value == "completed"
    assert [(span.name, span.status, span.end)
            for span in first.tracer.finished] == [
        ("step", "ok", 2.0), ("flow", "ok", 2.0), ("execution", "ok", 2.0)]
    assert first.dfms_step_duration.samples == [(2.0, 2.0)]
    if replace:
        assert dfms.env.telemetry.tracer.finished == []


@pytest.mark.parametrize("replace", [False, True])
def test_transfer_span_closes_in_the_session_that_opened_it(replace):
    # A transfer's span closes in the session attached when it started;
    # its completion record goes to the session attached when it ends.
    env = Environment()
    topology = Topology()
    topology.connect("A", "B", 0.0, 10 * MB)
    service = TransferService(env, topology)
    first = attach_telemetry(env)

    def scenario():
        done = service.transfer("A", "B", 20 * MB)
        yield env.timeout(1.0)
        env.telemetry = None
        if replace:
            attach_telemetry(env)
        yield done

    env.run_process(scenario())
    assert [(span.span_id, span.name, span.status, span.end)
            for span in first.tracer.finished] == [
        (1, "transfer", "ok", 2.0)]
    first.fold_log()
    assert first.log.of_kind("net.transfer") == []
    if replace:
        second = env.telemetry
        assert second.tracer.finished == [] and len(second.tracer) == 0
        second.fold_log()
        assert [record.time
                for record in second.log.of_kind("net.transfer")] == [2.0]


@pytest.mark.parametrize("cache", [False, True])
def test_catalog_queries_count_in_the_session_attached_now(dfms, cache):
    # Like every other subsystem, a catalog query records in the session
    # attached when it runs: never in one since replaced or detached.
    if cache:
        attach_cache(dfms.dgms)
    first = attach_telemetry(dfms.env, server=dfms.server)
    dfms.put_file("/home/alice/a.dat", size=MB)

    def query(limit):
        # A new limit each time, so an attached cache misses and plans.
        dfms.dgms.query(dfms.alice, Query(collection="/home", limit=limit))

    def counted(telemetry):
        return sum(child.value
                   for _, child in telemetry.catalog_queries.series())

    query(1)
    dfms.env.telemetry = None
    second = attach_telemetry(dfms.env)
    query(2)
    assert (counted(first), counted(second)) == (1, 1)
    dfms.env.telemetry = None
    query(3)
    assert (counted(first), counted(second)) == (1, 1)


# -- listener hooks (ILM + triggers) --------------------------------------

def test_ilm_listener_hook(dfms):
    manager = ILMManager(dfms.server)
    manager.add_policy(imploding_star_policy(
        name="archive", collection="/home", archiver_domain="sdsc",
        archive_resource="sdsc-tape"))
    dfms.put_file("/home/alice/cold.dat", size=MB)
    seen = []
    manager.listeners.append(
        lambda kind, policy, time, detail: seen.append((kind, policy)))
    dfms.run(manager.run_pass_sync("archive", dfms.alice))
    kinds = [kind for kind, _ in seen]
    assert kinds[0] == "pass_submitted"
    assert "applied" in kinds
    assert kinds[-1] == "pass_completed"
    assert all(policy == "archive" for _, policy in seen)


def test_trigger_listener_hook(dfms):
    manager = TriggerManager(dfms.dgms, server=dfms.server)
    manager.register(DatagridTrigger(
        name="note", owner=dfms.alice,
        kinds=frozenset({EventKind.INSERT}),
        action=Operation(name="dgl.log",
                         parameters={"message": "saw ${event_path}"})))
    manager.register(DatagridTrigger(
        name="never", owner=dfms.alice,
        kinds=frozenset({EventKind.INSERT}),
        condition="false",
        action=Operation(name="dgl.noop")))
    seen = []
    manager.listeners.append(
        lambda kind, name, time, detail: seen.append((kind, name)))
    dfms.put_file("/home/alice/new.dat", size=MB)
    assert ("fired", "note") in seen
    assert ("rejected", "never") in seen


# -- end to end: all six subsystems in one export -------------------------

def _exercise_all_subsystems(dfms):
    """One run that touches every instrumented subsystem."""
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    triggers = TriggerManager(dfms.dgms, server=dfms.server)
    triggers.register(DatagridTrigger(
        name="audit", owner=dfms.alice,
        kinds=frozenset({EventKind.REPLICATE}),
        action=Operation(name="dgl.log",
                         parameters={"message": "replica ${event_path}"})))
    ilm = ILMManager(dfms.server)
    ilm.add_policy(imploding_star_policy(
        name="archive", collection="/home", archiver_domain="sdsc",
        archive_resource="sdsc-tape"))

    response = dfms.submit_sync(_ingest_flow())
    assert response.body.state.value == "completed"
    dfms.run(ilm.run_pass_sync("archive", dfms.alice))
    query = Query(collection="/home",
                  conditions=parse_conditions("name like '*.dat'"))
    assert dfms.dgms.query(dfms.alice, query)
    return telemetry


def test_prometheus_export_covers_six_subsystems(dfms):
    telemetry = _exercise_all_subsystems(dfms)
    text = prometheus_text(telemetry)

    def value_of(line_prefix):
        for line in text.splitlines():
            if line.startswith(line_prefix):
                return float(line.rsplit(" ", 1)[1])
        raise AssertionError(f"no series {line_prefix!r} in export")

    assert value_of("sim_events_fired_total") > 0            # sim kernel
    assert value_of('dfms_engine_events_total{kind="step_completed"}') >= 2
    assert value_of('ilm_apply_total{policy="archive",outcome="applied"}') > 0
    assert value_of('trigger_firings_total{trigger="audit"}') >= 1
    assert value_of('net_transfers_total{scope="wan"}') >= 1  # network
    assert value_of("catalog_queries_total") >= 1             # catalog
    assert "# TYPE dfms_step_duration_seconds histogram" in text
    assert "dfms_step_duration_seconds_bucket" in text


def test_jsonl_export_reconstructs_span_tree(dfms):
    telemetry = _exercise_all_subsystems(dfms)
    entries = [json.loads(line) for line in jsonl_lines(telemetry)]

    spans = {entry["span_id"]: entry for entry in entries
             if entry["type"] == "span"}
    assert spans, "no spans in the JSONL export"
    # Every parent reference resolves: the tree reconstructs fully.
    for span in spans.values():
        assert span["parent_id"] is None or span["parent_id"] in spans
    # A transfer chains up to an execution root through flow and step.
    wan = next(entry for entry in spans.values()
               if entry["name"] == "transfer" and entry["attrs"]["hops"])
    chain = [wan["name"]]
    cursor = wan
    while cursor["parent_id"] is not None:
        cursor = spans[cursor["parent_id"]]
        chain.append(cursor["name"])
    assert chain == ["transfer", "step", "flow", "execution"]

    kinds = {entry["kind"] for entry in entries
             if entry["type"] == "event"}
    assert any(kind.startswith("engine.") for kind in kinds)
    assert any(kind.startswith("ilm.") for kind in kinds)
    assert any(kind.startswith("trigger.") for kind in kinds)
    assert "net.transfer" in kinds
    # Timestamped entries arrive in sim-time order.
    times = [entry.get("time", entry.get("end"))
             for entry in entries
             if entry["type"] in ("event", "span", "sample")]
    assert times == sorted(times)


def test_sim_kernel_slots_fold_into_metrics(dfms):
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    dfms.submit_sync(_ingest_flow())
    registry = telemetry.collect()
    scheduled = registry.get("sim_events_scheduled_total").value
    fired = registry.get("sim_events_fired_total").value
    depth = registry.get("sim_queue_depth").value
    assert scheduled > 0
    assert 0 < fired <= scheduled
    # The derivation's invariant: whatever was scheduled but has not
    # fired is exactly what still sits on the heap.
    assert fired == scheduled - depth
    lifetimes = registry.get("sim_process_lifetime_seconds")
    assert lifetimes.count > 0
    before = lifetimes.count
    telemetry.collect()   # idempotent: folding twice adds nothing
    assert lifetimes.count == before


# -- bound children at the hot sites ---------------------------------------

def _federation():
    from repro.federation import federation_scenario
    return federation_scenario(n_zones=2, objects_per_zone=2,
                               sync_period_s=None)


def test_bound_series_appear_only_after_first_update():
    scenario = _federation()
    telemetry = attach_telemetry(scenario.env)
    text = prometheus_text(telemetry)
    assert "rls_lookups_total{" not in text
    assert "rls_digest_checks_total{" not in text
    scenario.rls.locate("guid-nowhere-00000000")
    text = prometheus_text(telemetry)
    assert 'rls_lookups_total{outcome="miss"} 1' in text
    assert 'outcome="hit"' not in text
    assert "federation_copies_total{" not in text
    assert "recovery_actions_total{" not in text


def test_a_later_session_never_moves_an_earlier_sessions_children():
    from repro.faults.recovery import attach_recovery
    from repro.sim.rng import RandomStreams

    scenario = _federation()
    env = scenario.env
    recovery = attach_recovery(scenario.zones["z0"], RandomStreams(1))
    guid = scenario.zones["z0"].namespace.resolve_object(
        "/data/obj-0000.dat").guid
    first = attach_telemetry(env)
    scenario.rls.locate(guid)
    recovery.note("failover", path="/data/obj-0000.dat")

    def counts(session):
        return {(metric.name, labels): series.value
                for metric in session.metrics.metrics()
                if metric.kind == "counter"
                for labels, series in metric.series()}

    before = counts(first)
    assert before["rls_lookups_total", ("hit",)] == 1.0
    assert before["recovery_actions_total", ("failover",)] == 1.0
    env.telemetry = None
    second = attach_telemetry(env)
    assert second is not first
    for _ in range(3):
        scenario.rls.locate(guid)
        recovery.note("failover", path="/data/obj-0000.dat")
    assert counts(first) == before
    after = counts(second)
    assert after["rls_lookups_total", ("hit",)] == 3.0
    assert after["recovery_actions_total", ("failover",)] == 3.0
    assert second.rls_lookups.bound["hit"] is not first.rls_lookups.bound[
        "hit"]
