"""Tests for the provenance record model, store, and wiring."""

import gc

import pytest

from repro.dfms.engine import EngineEvent
from repro.errors import ProvenanceError
from repro.grid import (
    EventKind,
    EventPhase,
    NamespaceEvent,
    OperationRecord,
)
from repro.provenance import (
    ProvenanceRecord,
    ProvenanceStore,
    attach_to_dgms,
    attach_to_server,
    record_pipeline_operation,
)
from repro.dgl import DataGridRequest, flow_builder
from repro.storage import MB
from repro.workloads import cms_scenario


def rec(subject="/x", operation="put", category="dgms", time=1.0, **kw):
    return ProvenanceRecord(category=category, operation=operation,
                            subject=subject, time=time, **kw)


# -- record model ----------------------------------------------------------

def test_record_validation():
    with pytest.raises(ProvenanceError):
        rec(category="weird")
    with pytest.raises(ProvenanceError):
        rec(operation="")


def test_record_dict_round_trip():
    record = rec(actor="alice@sdsc", end_time=2.0, detail={"size": 5})
    assert ProvenanceRecord.from_dict(record.to_dict()) == record


def test_record_from_incomplete_dict():
    with pytest.raises(ProvenanceError):
        ProvenanceRecord.from_dict({"category": "dgms"})


# -- store ------------------------------------------------------------------

def test_append_and_query():
    store = ProvenanceStore()
    store.append(rec(subject="/a", operation="put", time=1.0))
    store.append(rec(subject="/a", operation="replicate", time=2.0))
    store.append(rec(subject="/b", operation="put", time=3.0,
                     actor="bob@ucsd"))
    assert len(store) == 3
    assert [r.operation for r in store.for_subject("/a")] == ["put",
                                                              "replicate"]
    assert store.query(operation="put", actor="bob@ucsd")[0].subject == "/b"
    assert len(store.query(since=2.0)) == 2
    assert len(store.query(until=2.0)) == 1
    assert len(store.query(subject_prefix="/a")) == 2


def test_store_survives_restart(tmp_path):
    path = tmp_path / "provenance.jsonl"
    with ProvenanceStore(str(path)) as store:
        store.append(rec(subject="/persisted", time=1.0))
    # Years later, a fresh process opens the same file.
    with ProvenanceStore(str(path)) as reopened:
        assert len(reopened) == 1
        assert reopened.for_subject("/persisted")[0].operation == "put"
        reopened.append(rec(subject="/persisted", operation="migrate",
                            time=2.0))
    with ProvenanceStore(str(path)) as third:
        assert [r.operation for r in third.for_subject("/persisted")] == [
            "put", "migrate"]


def test_corrupt_store_reported(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"category": "dgms"\n')
    with pytest.raises(ProvenanceError, match="corrupt"):
        ProvenanceStore(str(path))


# -- wiring ------------------------------------------------------------------

def test_dgms_operations_are_recorded(grid):
    store = ProvenanceStore()
    attach_to_dgms(store, grid.dgms)
    grid.put_file("/home/alice/a.dat", size=MB)

    def replicate():
        yield grid.dgms.replicate(grid.alice, "/home/alice/a.dat",
                                  "ucsd-disk")

    grid.run(replicate())
    trail = store.for_subject("/home/alice/a.dat")
    assert [r.operation for r in trail] == ["put", "replicate"]
    assert trail[0].actor == "alice@sdsc"
    assert trail[1].detail["to_domain"] == "ucsd"


def test_engine_events_are_recorded(dfms):
    store = ProvenanceStore()
    attach_to_server(store, dfms.server)
    flow = flow_builder("audited").step("s", "dgl.sleep", duration=1).build()
    dfms.submit_sync(flow)
    operations = [r.operation for r in store.records()]
    assert "execution_started" in operations
    assert "step_completed" in operations
    assert "execution_completed" in operations
    step_record = next(r for r in store.records()
                       if r.operation == "step_completed")
    assert step_record.subject.endswith("/s")


def test_provenance_queryable_long_after_execution(dfms):
    """The 'years later' audit: run now, query at +2 virtual years."""
    store = ProvenanceStore()
    attach_to_dgms(store, dfms.dgms)
    attach_to_server(store, dfms.server)
    flow = (flow_builder("job")
            .step("mk", "srb.put", path="/home/alice/old.dat",
                  size=MB, resource="sdsc-disk")
            .build())
    dfms.submit_sync(flow)

    def years_pass():
        yield dfms.env.timeout(2 * 365 * 86400.0)

    dfms.run(years_pass())
    trail = store.for_subject("/home/alice/old.dat")
    assert trail and trail[0].operation == "put"
    assert dfms.env.now - trail[0].time > 6e7    # genuinely years later


def test_each_producer_is_recorded_from_its_own_attach(dfms):
    # Another store already reads the engine, so its events are journal
    # rows before `store` attaches to it: they are not `store`'s.
    bystander = ProvenanceStore()
    attach_to_server(bystander, dfms.server)
    store = ProvenanceStore()
    attach_to_dgms(store, dfms.dgms)
    noop = flow_builder("noop").step("s", "dgl.noop").build()
    before = dfms.submit_sync(noop).request_id
    attach_to_server(store, dfms.server)
    after = dfms.submit_sync(noop).request_id
    assert {r.subject.split("/")[0] for r in bystander.records()} == {
        before, after}
    assert {r.subject.split("/")[0] for r in store.records()} == {after}


def test_pipeline_operations_recorded():
    store = ProvenanceStore()
    record_pipeline_operation(store, "ocr", "/library/scan-1.tiff",
                              time=5.0, actor="pipeline@lib", dpi=300)
    (record,) = store.records()
    assert record.category == "pipeline"
    assert record.detail == {"dpi": 300}


# -- producer records and the pending tail ------------------------------------

def test_dgms_records_keep_keyword_construction_and_field_order():
    record = OperationRecord(operation="put", user="alice@sdsc", path="/a",
                             start_time=1.0, end_time=2.0,
                             detail={"size": 5})
    assert OperationRecord._fields == (
        "operation", "user", "path", "start_time", "end_time", "detail")
    assert tuple(record) == ("put", "alice@sdsc", "/a", 1.0, 2.0,
                             {"size": 5})
    assert (record.operation, record.user, record.path, record.start_time,
            record.end_time) == ("put", "alice@sdsc", "/a", 1.0, 2.0)
    event = NamespaceEvent(kind=EventKind.INSERT, phase=EventPhase.AFTER,
                           path="/a", time=3.0)
    assert NamespaceEvent._fields == (
        "kind", "phase", "path", "time", "user", "detail")
    assert (event.kind, event.phase, event.path, event.time, event.user) == (
        EventKind.INSERT, EventPhase.AFTER, "/a", 3.0, None)


def test_default_detail_cannot_be_mutated():
    for record in (OperationRecord("put", None, "/a", 0.0, 1.0),
                   NamespaceEvent(EventKind.INSERT, EventPhase.BEFORE, "/a",
                                  0.0)):
        with pytest.raises(TypeError):
            record.detail["leak"] = 1
        assert dict(record.detail) == {}
    store = ProvenanceStore()
    store.append(OperationRecord("put", None, "/a", 0.0, 1.0))
    (converted,) = store.records()
    assert type(converted.detail) is dict and converted.to_dict()["detail"] == {}


def test_dgms_builds_each_record_once_for_every_listener(grid):
    records, more_records, events, more_events = [], [], [], []
    grid.dgms.operation_listeners += [records.append, more_records.append]
    grid.dgms.events.subscribe(events.append)
    grid.dgms.events.subscribe(more_events.append)
    grid.put_file("/home/alice/a.dat", size=MB)
    assert records and events
    assert all(type(r) is OperationRecord for r in records)
    assert all(type(e) is NamespaceEvent for e in events)
    assert all(a is b for a, b in zip(records, more_records))
    assert all(a is b for a, b in zip(events, more_events))


def test_wiring_subscribes_the_store_itself(dfms):
    store = ProvenanceStore()
    attach_to_dgms(store, dfms.dgms)
    attach_to_server(store, dfms.server)
    assert dfms.dgms.operation_listeners[-1] == store.append
    assert dfms.server.engine.listeners[-1] == store.append


def _live_provenance_records():
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if type(obj) is ProvenanceRecord)


def test_reading_the_store_keeps_no_record():
    before = _live_provenance_records()
    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1, n_events=4,
                            event_size=16 * MB, seed=11)
    stage = flow_builder("stage")
    for index, obj in enumerate(scenario.dgms.namespace.
                                iter_objects_in_path_order("/cms/run1")):
        stage.step(f"rep-{index}", "srb.replicate", path=obj.path,
                   resource=scenario.extras["tier1_resources"][0])
    response = scenario.run(scenario.server.submit_sync(DataGridRequest(
        user=scenario.users["physicist"].qualified_name,
        virtual_organization="cms", body=stage.build())))
    assert response.body.state.value == "completed"
    store = scenario.provenance
    recorded = len(store)
    assert recorded > 0
    records = store.records()
    assert len(records) == recorded
    assert _live_provenance_records() == before
    # Iterating, indexing and slicing build fresh records that nobody
    # keeps: once the reader drops them, none is left.
    assert {record.category for record in records} == {"dgms", "engine"}
    assert records[-1] == records[recorded - 1]
    assert records[-1] is not records[-1]
    assert records[1:3] == list(records)[1:3]
    assert [record.subject for record in store.for_subject(
        records[0].subject)][0] == records[0].subject
    assert store.query(category="engine")
    assert _live_provenance_records() == before


def test_a_closed_file_backed_store_refuses_entries(tmp_path, grid):
    path = tmp_path / "provenance.jsonl"
    store = ProvenanceStore(str(path))
    store.append(rec(subject="/kept"))
    store.close()
    for entry in (rec(subject="/lost"),
                  EngineEvent("step_started", "dgr-1", "s", 2.0, {}, None)):
        with pytest.raises(ProvenanceError, match="closed"):
            store.append(entry)
    # An attached producer's operation after the `with` block ends fails
    # loudly instead of being kept only in memory.
    with ProvenanceStore(str(path)) as attached:
        attach_to_dgms(attached, grid.dgms)
        grid.put_file("/home/alice/before.dat")
    with pytest.raises(ProvenanceError, match="closed"):
        grid.put_file("/home/alice/after.dat")
    assert len(store) == 1
    assert len(attached) == 2
    assert len(path.read_text().splitlines()) == 2
    with ProvenanceStore(str(path)) as reopened:
        assert [record.subject for record in reopened.records()] == [
            "/kept", "/home/alice/before.dat"]


@pytest.mark.parametrize("path", [None, "provenance.jsonl"])
def test_entries_are_checked_when_appended(tmp_path, path):
    store = ProvenanceStore(None if path is None else tmp_path / path)
    with pytest.raises(ProvenanceError, match="cannot record"):
        store.append({"category": "dgms"})
    store.append(EngineEvent("step_started", "dgr-1", "s", 1.0, {}, None))
    for bad in (OperationRecord("", None, "/bad", 0.0, 0.0),
                EngineEvent("", "dgr-1", "s", 2.0, {}, None)):
        with pytest.raises(ProvenanceError,
                           match="operation cannot be empty"):
            store.append(bad)
    assert len(store) == 1
    store.append(OperationRecord("put", None, "/a", 3.0, 4.0))
    assert [r.subject for r in store.records()] == ["dgr-1/s", "/a"]
    assert len(store) == 2


def test_a_record_whose_times_are_not_numbers_is_refused():
    # Times are array columns: a record that cannot be encoded is
    # refused whole, and the store keeps what it had.
    store = ProvenanceStore()
    store.append(rec(subject="/a", time=1.0))
    for bad in (rec(subject="/b", time=None),
                rec(subject="/c", time=2.0, end_time="later")):
        with pytest.raises(ProvenanceError, match="cannot record"):
            store.append(bad)
    store.append(rec(subject="/d", time=3.0))
    assert [record.subject for record in store.records()] == ["/a", "/d"]
    assert [record.subject for record in store.query(since=0.0)] == [
        "/a", "/d"]
