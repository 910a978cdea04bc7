"""Differential property test: the provenance store against an eager model.

The store keeps each engine event and DGMS operation as one row of the
environment's journal and builds a ``ProvenanceRecord`` only when read.
This state machine feeds two stores, one in memory and one file-backed,
random interleavings of:

* events and operations from a real :class:`FlowEngine` and
  :class:`DataGridManagementSystem`, recorded once the stores are
  attached to that producer. Each attach is a step of its own, a third
  store is attached to both producers from the start (so their rows
  reach the journal before the two under test read them), and direct
  entries made before the first attach move into the environment's
  journal;
* direct appends of engine events, DGMS records and ``ProvenanceRecord``
  s;
* ``len``, negative indexing, slices, iteration, ``for_subject`` and
  ``query`` calls.

Every answer must equal, in order, a model that builds one
``ProvenanceRecord`` per event as it arrives: from the object a live
listener on each producer receives, as the store itself did before it
kept rows. ``detail`` is compared by value, since a row does not keep
the producer's dict. A producer record with an empty operation must be
refused at append, leaving the stores as they were. The file-backed
store must write the model's JSON lines byte for byte.
"""

import json
import os
import tempfile
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.dfms.engine import EngineEvent, FlowEngine
from repro.errors import ProvenanceError
from repro.grid.dgms import DataGridManagementSystem, OperationRecord
from repro.grid.users import User
from repro.provenance import (
    CATEGORIES,
    ProvenanceRecord,
    ProvenanceStore,
    attach_to_dgms,
    attach_to_server,
)
from repro.sim import Environment

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
grid_users = st.sampled_from([None, User("alice", "sdsc"),
                              User("bob", "ucsd")])
failures = st.none() | st.fixed_dictionaries(
    {"error": st.sampled_from(["boom", "lost"]),
     "error_type": st.sampled_from(["ExecutionError", "GridError"])})


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
                            detail=dict(record.detail))


def same(got, want):
    got = list(got)
    assert got == want
    assert all(type(record.detail) is dict for record in got)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.directory.name, "provenance.jsonl")
        self.stores = (ProvenanceStore(), ProvenanceStore(self.path))
        self.model = []
        self.env = Environment()
        self.engine = FlowEngine(self.env, None)
        self.dgms = DataGridManagementSystem(self.env)
        # The live listeners: each producer still builds its one record
        # object for them, which is what the eager model converts.
        self.live = []
        self.engine.listeners.append(self.live.append)
        self.dgms.operation_listeners.append(self.live.append)
        self.bystander = ProvenanceStore()
        attach_to_dgms(self.bystander, self.dgms)
        attach_to_server(self.bystander, SimpleNamespace(engine=self.engine))
        self.attached = set()

    def _feed(self, entry, record):
        for store in self.stores:
            store.append(entry)
        self.model.append(record)

    # -- producers ----------------------------------------------------------

    @precondition(lambda self: "engine" not in self.attached)
    @rule()
    def attach_engine(self):
        for store in self.stores:
            attach_to_server(store, SimpleNamespace(engine=self.engine))
        self.attached.add("engine")

    @precondition(lambda self: "dgms" not in self.attached)
    @rule()
    def attach_dgms(self):
        for store in self.stores:
            attach_to_dgms(store, self.dgms)
        self.attached.add("dgms")

    @rule(delay=st.sampled_from([0.5, 2.0]))
    def advance(self, delay):
        self.env.run(until=self.env.now + delay)

    @rule(kind=operations, request_id=request_ids, key=instance_keys,
          operation=st.none() | operations, failure=failures, user=users)
    def engine_notifies(self, kind, request_id, key, operation, failure,
                        user):
        execution = SimpleNamespace(request_id=request_id, user_name=user)
        self.engine._notify(kind, execution, key,
                            operation=None if failure else operation,
                            failure=failure)
        event = self.live.pop()
        assert type(event) is EngineEvent
        if "engine" in self.attached:
            self.model.append(eager_engine_record(event))

    @rule(operation=operations, user=grid_users, path=paths, took=times,
          detail=details)
    def dgms_records(self, operation, user, path, took, detail):
        start = max(0.0, self.env.now - took)
        self.dgms._record(operation, user, path, start, **detail)
        record = self.live.pop()
        assert type(record) is OperationRecord
        if "dgms" in self.attached:
            self.model.append(eager_dgms_record(record))

    # -- direct appends -------------------------------------------------------

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
            assert len(store.records()) == len(self.model)

    @rule()
    def records(self):
        for store in self.stores:
            same(store.records(), self.model)

    @rule(data=st.data())
    def index_and_slice(self, data):
        size = len(self.model)
        for store in self.stores:
            view = store.records()
            if size:
                back = data.draw(st.integers(1, size))
                assert view[-back] == self.model[-back]
                assert view[size - back] == self.model[size - back]
            bounds = st.none() | st.integers(-size - 1, size + 1)
            window = slice(data.draw(bounds), data.draw(bounds),
                           data.draw(st.none() | st.sampled_from([1, 2, -1])))
            same(view[window], self.model[window])
            with pytest.raises(IndexError):
                view[size]

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
