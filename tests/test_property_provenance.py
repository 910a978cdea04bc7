"""Differential property test: the provenance store against an eager model.

The store keeps each engine event and DGMS operation as the record its
producer built and turns them into ``ProvenanceRecord``\\ s at the first
read. This state machine feeds it random interleavings of engine events,
DGMS records and ``ProvenanceRecord`` appends, with ``len``, ``records``,
``for_subject`` and ``query`` calls in between, and checks every answer
(order and ``detail`` identity included) against a model that builds one
``ProvenanceRecord`` per event as it arrives. A producer record with an
empty operation must be refused at append, leaving the store as it was.
A file-backed store fed the same entries must give the same answers and
write the model's JSON lines byte for byte.
"""

import json
import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.dfms.engine import EngineEvent
from repro.errors import ProvenanceError
from repro.grid.dgms import OperationRecord
from repro.provenance import CATEGORIES, ProvenanceRecord, ProvenanceStore

request_ids = st.sampled_from(["dgr-1", "dgr-2"])
instance_keys = st.sampled_from(["", "s", "f/s[0]"])
# "dgr-1/s" is also an engine subject: both producers share the index.
paths = st.sampled_from(["/a", "/a/b", "dgr-1/s"])
subjects = st.sampled_from(["/a", "/a/b", "dgr-1", "dgr-1/s",
                            "dgr-2/f/s[0]", "/none"])
operations = st.sampled_from(["put", "replicate", "step_started",
                              "step_completed"])
times = st.sampled_from([0.0, 1.5, 3.0])
actors = st.sampled_from(["alice@sdsc", "bob@ucsd"])
users = st.none() | actors
details = st.dictionaries(st.sampled_from(["size", "error"]),
                          st.integers(0, 3), max_size=2)


def eager_engine_record(event):
    kind, request_id, instance_key, time, detail, user = event
    subject = (f"{request_id}/{instance_key}" if instance_key
               else request_id)
    return ProvenanceRecord(category="engine", operation=kind,
                            subject=subject, time=time, actor=user,
                            detail=detail)


def eager_dgms_record(record):
    return ProvenanceRecord(category="dgms", operation=record.operation,
                            subject=record.path, time=record.start_time,
                            end_time=record.end_time, actor=record.user,
                            detail=record.detail)


def same(got, want):
    assert got == want
    assert all(g.detail is w.detail for g, w in zip(got, want))


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.directory.name, "provenance.jsonl")
        self.stores = (ProvenanceStore(), ProvenanceStore(self.path))
        self.model = []

    def _feed(self, entry, record):
        for store in self.stores:
            store.append(entry)
        self.model.append(record)

    # -- feeds --------------------------------------------------------------

    @rule(kind=operations, request_id=request_ids, key=instance_keys,
          time=times, detail=details, user=users)
    def engine_event(self, kind, request_id, key, time, detail, user):
        event = EngineEvent(kind, request_id, key, time, detail, user)
        self._feed(event, eager_engine_record(event))

    @rule(operation=operations, user=users, path=paths, start=times,
          took=times, detail=details)
    def dgms_record(self, operation, user, path, start, took, detail):
        record = OperationRecord(operation, user, path, start,
                                 start + took, detail)
        self._feed(record, eager_dgms_record(record))

    @rule(category=st.sampled_from(CATEGORIES), operation=operations,
          subject=subjects, time=times, actor=users, detail=details)
    def provenance_record(self, category, operation, subject, time, actor,
                          detail):
        record = ProvenanceRecord(category=category, operation=operation,
                                  subject=subject, time=time, actor=actor,
                                  detail=detail)
        self._feed(record, record)

    @rule(engine=st.booleans(), path=paths, time=times)
    def empty_operation(self, engine, path, time):
        entry = (EngineEvent("", "dgr-1", "s", time, {}, None) if engine
                 else OperationRecord("", None, path, time, time))
        for store in self.stores:
            with pytest.raises(ProvenanceError):
                store.append(entry)

    # -- reads --------------------------------------------------------------

    @rule()
    def length(self):
        for store in self.stores:
            assert len(store) == len(self.model)

    @rule()
    def records(self):
        for store in self.stores:
            same(store.records(), self.model)

    @rule(subject=subjects)
    def for_subject(self, subject):
        want = [r for r in self.model if r.subject == subject]
        for store in self.stores:
            same(store.for_subject(subject), want)

    @rule(prefix=st.none() | st.sampled_from(["", "/a", "dgr-1"]),
          category=st.none() | st.sampled_from(CATEGORIES),
          operation=st.none() | operations, actor=st.none() | actors,
          since=st.none() | times, until=st.none() | times)
    def query(self, prefix, category, operation, actor, since, until):
        want = [r for r in self.model
                if (prefix is None or r.subject.startswith(prefix))
                and category in (None, r.category)
                and operation in (None, r.operation)
                and actor in (None, r.actor)
                and (since is None or r.time >= since)
                and (until is None or r.time < until)]
        for store in self.stores:
            same(store.query(subject_prefix=prefix, category=category,
                             operation=operation, actor=actor,
                             since=since, until=until), want)

    def teardown(self):
        self.stores[1].close()
        with open(self.path, "rb") as handle:
            written = handle.read()
        self.directory.cleanup()
        assert written == "".join(
            json.dumps(record.to_dict(), sort_keys=True) + "\n"
            for record in self.model).encode("utf-8")


StoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestStoreMachine = StoreMachine.TestCase
