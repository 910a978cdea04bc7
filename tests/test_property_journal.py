"""Differential property tests: journal rows against the objects they
replace.

Finished transfers and engine events are rows of the environment's
journal, and readers build objects from them only when they read. Two
properties hold those readers to the objects the run used to keep:

* ``TransferService.completed`` equals, item for item and in completion
  order, the list of the ``TransferStats`` the transfers' events carried
  (and hands back the very object while a caller still holds it);
* the telemetry session's fold equals the fold it replaced — engine
  events kept as ``EngineEvent`` objects and transfers as their stats,
  folded as the engine records in arrival order, then the transfer
  records in arrival order, then a stable sort by time — record for
  record, fields and their order included, with the counters and
  duration samples it derives, whether a flight recorder is attached
  from the start, midway with rows not folded yet, or not at all. With
  one attached from the start, each folded record shares its fields dict
  with the ring's record.
"""

import dataclasses
import gc
from operator import itemgetter
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dfms.engine import FlowEngine
from repro.network import Topology, TransferService
from repro.provenance import ProvenanceStore, attach_to_server
from repro.sim import Environment
from repro.storage import MB
from repro.telemetry import attach_observability, attach_telemetry

LEAVES = ["x", "y", "z"]
domains = st.sampled_from(["hub"] + LEAVES)
# Ints and floats both: a row must hand back the object it was given.
sizes = st.sampled_from([0, MB, 3 * MB, 2.5 * MB, 10 * MB])
delays = st.sampled_from([0.0, 0.05, 0.4, 2.0])
transfers = st.tuples(domains, domains, sizes, delays)


def _star():
    return Topology.star("hub", LEAVES, latency_s=0.01,
                         bandwidth_bps=4 * MB)


@settings(max_examples=60, deadline=None)
@given(plan=st.lists(transfers, min_size=1, max_size=14),
       keep=st.booleans())
def test_completed_view_equals_the_carried_stats(plan, keep):
    env = Environment()
    service = TransferService(env, _star())
    finished = []

    def driver():
        events = []
        for src, dst, nbytes, wait in plan:
            if wait:
                yield env.timeout(wait)
            event = service.transfer(src, dst, nbytes)
            event.callbacks.append(
                lambda done: finished.append(done.value))
            events.append(event)
        yield env.all_of(events)

    env.run_process(driver())
    want = [dataclasses.replace(stats) for stats in finished]
    if not keep:
        del finished[:]
        gc.collect()
    view = service.completed
    assert len(view) == len(want) == len(plan)
    assert list(view) == want
    assert view == want
    for back in range(1, len(want) + 1):
        assert view[-back] == want[-back]
    assert view[1::2] == want[1::2]
    assert view[::-1] == want[::-1]
    if keep:
        assert all(got is held for got, held in zip(view, finished))
    else:
        assert view[0] is not view[0]


kinds = st.sampled_from(["step_started", "step_completed", "step_failed",
                         "execution_started"])
engine_ops = st.tuples(
    st.just("event"), kinds, st.sampled_from(["dgr-1", "dgr-2"]),
    st.sampled_from(["", "s", "f/s[0]"]),
    st.none() | st.sampled_from(["dgl.noop", "srb.put"]),
    st.sampled_from([None, "alice@sdsc"]))
ops = st.one_of(
    engine_ops,
    st.tuples(st.just("transfer"), domains, domains, sizes),
    st.tuples(st.just("emit"), st.sampled_from(["ilm.applied",
                                                "trigger.fired"])),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0])),
    st.tuples(st.just("fold")),
    st.tuples(st.just("toggle")),
    st.tuples(st.just("enroll")))


def _old_engine_fields(event):
    fields = {"request_id": event.request_id, "key": event.instance_key}
    if event.detail:
        fields.update(event.detail)
    return fields


def _old_transfer_fields(stats):
    return {"src": stats.src, "dst": stats.dst, "nbytes": stats.nbytes,
            "hops": stats.hops, "links": list(stats.route),
            "duration": stats.duration}


class _OldFold:
    """The fold the rows replaced: pending objects, folded at once."""

    def __init__(self):
        self.log = []
        self.events = []
        self.stats = []
        self.kinds = {}
        self.wan = self.local = 0
        self.moved = 0.0
        self.samples = []

    def fold(self):
        if not (self.events or self.stats):
            return
        for event in self.events:
            self.kinds[event.kind] = self.kinds.get(event.kind, 0) + 1
            self.log.append((event.time, f"engine.{event.kind}",
                             _old_engine_fields(event)))
        for stats in self.stats:
            if stats.hops:
                self.wan += 1
                self.moved += stats.nbytes
                self.samples.append((stats.end_time, stats.duration))
            else:
                self.local += 1
            self.log.append((stats.end_time, "net.transfer",
                             _old_transfer_fields(stats)))
        del self.events[:], self.stats[:]
        self.log.sort(key=itemgetter(0))


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(ops, max_size=40),
       recorder=st.sampled_from(("none", "start", "midway")),
       store=st.booleans())
def test_fold_equals_the_object_fold(steps, recorder, store):
    env = Environment()
    engine = FlowEngine(env, None)
    server = SimpleNamespace(engine=engine)
    service = TransferService(env, _star())
    old = _OldFold()
    # A store reads the engine from the start, so its events are rows
    # before the session enrolls with it (the "enroll" step; the old
    # session subscribed then, and the model's live listener stands for
    # that subscription).
    if store:
        attach_to_server(ProvenanceStore(), server)
    telemetry = (attach_observability(env).telemetry
                 if recorder == "start" else attach_telemetry(env))
    finish = service._finish

    def finish_and_keep(stats, done, *args):
        finish(stats, done, *args)
        if env.telemetry is telemetry:
            old.stats.append(dataclasses.replace(stats))

    service._finish = finish_and_keep
    for index, op in enumerate(steps):
        if recorder == "midway" and index == len(steps) // 2:
            # A recorder attached with rows not folded yet: the fold
            # scans those, and takes the later ones from the tap's stash.
            attached, env.telemetry = env.telemetry, telemetry
            attach_observability(env)
            env.telemetry = attached
        if op[0] == "event":
            _, kind, request_id, key, operation, user = op
            execution = SimpleNamespace(request_id=request_id,
                                        user_name=user)
            if kind.endswith("_failed"):
                engine._notify(kind, execution, key, failure={
                    "error": "boom", "error_type": "ExecutionError"})
            else:
                engine._notify(kind, execution, key, operation=operation)
        elif op[0] == "transfer":
            service.transfer(*op[1:])
        elif op[0] == "emit":
            telemetry.log.emit(op[1], at=env.now)
            old.log.append((env.now, op[1], {"at": env.now}))
        elif op[0] == "advance":
            env.run(until=env.now + op[1])
        elif op[0] == "fold":
            telemetry.fold_log()
            old.fold()
        elif op[0] == "toggle":
            env.telemetry = None if env.telemetry is telemetry else telemetry
        elif old.events.append not in engine.listeners:
            engine.listeners.append(old.events.append)
            telemetry.enroll(engine)
    env.run()
    telemetry.collect()
    old.fold()

    got = [(r.time, r.kind, list(r.fields.items()))
           for r in telemetry.log.records]
    assert got == [(time, kind, list(fields.items()))
                   for time, kind, fields in old.log]
    for kind, count in old.kinds.items():
        assert telemetry.dfms_engine_events.labels(kind=kind).value == count
    assert telemetry.net_transfers_wan.value == old.wan
    assert telemetry.net_transfers_local.value == old.local
    assert telemetry.net_bytes.value == old.moved
    assert telemetry.net_transfer_duration.samples == old.samples
    if recorder == "start":
        ring = {id(entry.fields) for entry in telemetry.recorder.ring}
        assert all(id(record.fields) in ring
                   for record in telemetry.log.records
                   if record.kind.startswith(("engine.", "net.")))


def test_a_recorder_attached_midway_folds_the_rows_before_it():
    # The fold scans the rows that arrived before the recorder's tap and
    # takes the later ones from the tap's stash, in that order.
    env = Environment()
    engine = FlowEngine(env, None)
    telemetry = attach_telemetry(env)
    telemetry.enroll(engine)
    execution = SimpleNamespace(request_id="r1", user_name="u@d")
    engine._notify("step_started", execution, "a", operation="op")
    obs = attach_observability(env)
    engine._notify("step_completed", execution, "a", operation="op")
    telemetry.fold_log()
    assert [(record.kind, record.fields) for record in telemetry.log.records
            ] == [(f"engine.{kind}", {"request_id": "r1", "key": "a",
                                      "operation": "op"})
                  for kind in ("step_started", "step_completed")]
    assert [entry.kind for entry in obs.recorder.ring] == [
        "engine.step_completed"]
    assert obs.recorder.ring[0].fields is telemetry.log.records[1].fields
