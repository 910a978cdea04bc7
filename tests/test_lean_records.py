"""What a finished execution keeps: no empty container per node.

The server keeps every execution's definition tree, status tree and
journal, and the cyclic collector rescans all of them on each full
collection. An empty list is a tracked object that holds nothing, so
the model stores ``()`` (the untracked, shared empty tuple) wherever a
node has nothing: a step's variables and rules, a step's status
children, a non-assigning step's journal effects.

The seeded run below submits flows from every producer the server
sees (the builder through a seeded traffic generator and the gateway,
the DGL XML and MoML readers, trigger actions, stored procedures and a
checkpoint restore). The pin counts the tracked objects one more step
adds to a finished execution.
"""

import enum
import gc

import pytest

from repro.dfms import ProcedureParameter, ProcedureRegistry, StoredProcedure
from repro.dfms.checkpoint import checkpoint_execution, restore_execution
from repro.dfms.gateway import DfMSGateway
from repro.dgl import (
    AFTER_EXIT,
    Action,
    DataGridRequest,
    ExecutionState,
    Flow,
    Operation,
    Step,
    UserDefinedRule,
    flow_builder,
)
from repro.dgl.moml import flow_to_moml, moml_to_flow
from repro.dgl.xml_io import request_from_xml, request_to_xml
from repro.grid import EventKind
from repro.ilm import ILMPolicy, PlacementRule
from repro.provenance import ProvenanceStore, attach_to_dgms, attach_to_server
from repro.sim.rng import RandomStreams
from repro.storage import MB
from repro.telemetry import attach_telemetry
from repro.triggers import DatagridTrigger, TriggerManager
from repro.workloads.traffic import TrafficGenerator, TrafficProfile

#: Tracked objects one step adds to a finished execution: its ``Step``,
#: ``Operation``, status node and ``JournalEntry``.
TRACKED_PER_STEP = 4


def definition_sequences(flow):
    """Every sequence a definition tree holds, with where it sits."""
    for path, _, node in flow.walk():
        if isinstance(node, Flow):
            yield f"{path}.variables", node.variables
            yield f"{path}.children", node.children
            rules = node.logic.rules
            yield f"{path}.logic.rules", rules
        else:
            yield f"{path}.variables", node.variables
            rules = node.rules
            yield f"{path}.rules", rules
        for rule in rules:
            yield f"{path}.{rule.name}.actions", rule.actions


def record_sequences(execution):
    """The definition tree's sequences, the status tree's leaf children
    and the journal's effects."""
    yield from definition_sequences(execution.flow)
    stack = [execution.status]
    while stack:
        status = stack.pop()
        if status.children:
            stack.extend(status.children)
        else:
            yield f"status {status.name}.children", status.children
    for key, entry in execution.journal.items():
        yield f"journal {key}.effects", entry.effects


def annotated_flow(name):
    """A builder flow with variables, flow and step rules and an
    assigning step."""
    tagged = Step(name="tagged", operation=Operation("dgl.noop"),
                  rules=[UserDefinedRule(AFTER_EXIT, "true", [Action(
                      "log", Operation("dgl.log", {"message": "done"}))])])
    work = (flow_builder("work").variable("limit", 2)
            .step("count", "srb.query", assign_to="found",
                  collection="${target}")
            .step("wait", "dgl.sleep", duration=1)
            .add_step(tagged))
    inner = (flow_builder("inner").parallel()
             .step("a", "dgl.noop").step("b", "dgl.noop"))
    return (flow_builder(name)
            .variable("target", "/home/alice")
            .before_entry(Operation("dgl.log", {"message": "enter"}))
            .subflow(work).subflow(inner)
            .build())


def seeded_run(dfms, seed):
    """Drive flows from every producer through one server; return it."""
    server, env, alice = dfms.server, dfms.env, dfms.alice
    TriggerManager(dfms.dgms, server).register(DatagridTrigger(
        name="on-ingest", owner=alice, kinds=frozenset({EventKind.INSERT}),
        action=Operation("dgl.log", {"message": "ingested"})))
    registry = ProcedureRegistry(server)
    registry.define(StoredProcedure(
        name="touch", owner=alice.qualified_name,
        parameters=[ProcedureParameter("note", required=False,
                                       default="x")],
        flow=flow_builder("body").step("log", "dgl.log",
                                       message="${note}").build()))
    gateway = DfMSGateway(env, server, workers=4, queue_limit=16)
    TrafficGenerator(env, gateway, alice.qualified_name,
                     TrafficProfile(query_collection="/home/alice",
                                    mean_interarrival_s=2.0),
                     streams=RandomStreams(seed), horizon_s=40.0).start()
    request = DataGridRequest(user=alice.qualified_name,
                              virtual_organization="vo",
                              body=annotated_flow("xml"))
    server.submit(request_from_xml(request_to_xml(request)))
    structural = (flow_builder("moml").repeat(2)
                  .step("s", "dgl.noop").build())
    server.submit(DataGridRequest(
        user=alice.qualified_name, virtual_organization="vo",
        body=moml_to_flow(flow_to_moml(structural))))
    checkpointed = server.submit(DataGridRequest(
        user=alice.qualified_name, virtual_organization="vo",
        body=annotated_flow("checkpointed")))
    registry.call(alice, "touch", {"note": "called"})

    def ingest():
        for index in range(3):
            yield dfms.dgms.put(alice, f"/home/alice/f{index}.dat", MB,
                                "sdsc-disk")

    env.process(ingest())
    env.run()
    restore_execution(server, checkpoint_execution(
        server, checkpointed.request_id), replace=True)
    env.run()
    return server


def test_finished_executions_hold_no_tracked_empty_sequence(dfms):
    server = seeded_run(dfms, seed=7)
    executions = server.executions()
    assert len(executions) > 10
    assert {execution.state for execution in executions} == {
        ExecutionState.COMPLETED}
    names = {execution.flow.name.split("-")[0] for execution in executions}
    assert {"traffic", "xml", "moml", "checkpointed", "call:touch",
            "trigger:on"} <= names
    empty = 0
    for execution in executions:
        for where, sequence in record_sequences(execution):
            assert type(sequence) in (tuple, list), where
            if not sequence:
                empty += 1
                assert not gc.is_tracked(sequence), (
                    f"{execution.request_id}: {where}")
    assert empty > 100


def test_every_producer_yields_tuples():
    flow = annotated_flow("f")
    request = DataGridRequest(user="u@d", virtual_organization="vo",
                              body=flow)
    structural = flow_builder("m").step("s", "dgl.noop").build()
    rule = UserDefinedRule("r", "true", [Action("a", Operation("dgl.noop"))])
    produced = [
        flow,
        request_from_xml(request_to_xml(request)).body,
        moml_to_flow(flow_to_moml(structural)),
        Flow("direct", children=[structural], variables=[]),
        ILMPolicy(name="p", collection="/c", domain="d", rules=[
            PlacementRule("purge", "true", "delete")]).compile_to_flow(),
    ]
    assert request_from_xml(request_to_xml(request)).body == flow
    assert type(rule.actions) is tuple
    for tree in produced:
        for where, sequence in definition_sequences(tree):
            assert type(sequence) is tuple, where
            assert not gc.is_tracked(sequence) or sequence, where


def tracked_reachable(*roots, skip_callables=False, stop=()):
    """Tracked objects reachable from ``roots``, not counting classes and
    enum members, which every record shares (nor, with
    ``skip_callables``, anything callable, or what it reaches, nor the
    objects in ``stop`` and what only they reach)."""
    seen = {id(obj) for obj in stop}
    stack = list(roots)
    count = 0
    while stack:
        obj = stack.pop()
        if (id(obj) in seen or isinstance(obj, (type, enum.Enum))
                or (skip_callables and callable(obj))):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return count


def finished_execution(dfms, n_steps):
    builder = flow_builder(f"lean-{n_steps}")
    for index in range(n_steps):
        builder.step(f"s{index}", "dgl.noop")
    response = dfms.submit_sync(builder.build())
    assert response.body.state is ExecutionState.COMPLETED
    return dfms.server.execution(response.request_id)


@pytest.mark.parametrize("n_steps", [4, 16])
def test_tracked_objects_per_finished_step_are_pinned(dfms, n_steps):
    def held(execution):
        return tracked_reachable(execution.flow, execution.status,
                                 execution.journal)

    base = held(finished_execution(dfms, 1))
    grown = held(finished_execution(dfms, 1 + n_steps))
    assert (grown - base) == TRACKED_PER_STEP * n_steps


@pytest.mark.parametrize("n_steps", [4, 16])
def test_telemetry_keeps_no_object_per_finished_step(dfms, n_steps):
    # Spans are rows and raw samples are columns, so once the collector
    # has untracked the rows' value tuples, what the tracer and the
    # metrics hold does not grow with the steps run. The walk does not
    # follow callables: the session clock is a partial over the
    # environment, which reaches the whole deployment.
    telemetry = attach_telemetry(dfms.env, server=dfms.server)

    def held():
        gc.collect()
        return tracked_reachable(telemetry.tracer, telemetry.metrics,
                                 skip_callables=True)

    finished_execution(dfms, 1)
    base = held()
    finished_execution(dfms, 1 + n_steps)
    assert held() == base
    # Two executions, each an execution and a flow span, and their steps.
    assert len(telemetry.tracer) == 2 * 2 + 2 + n_steps


@pytest.mark.parametrize("n_steps", [4, 16])
def test_provenance_and_session_keep_no_object_per_finished_step(dfms,
                                                                 n_steps):
    # Engine events are journal rows: references to strings the run
    # shares and times in array columns, none of them tracked, so what an
    # attached store and session hold does not grow with the steps run.
    # The walk stops at the deployment (the journal's source column names
    # the producers) and does not follow callables.
    store = ProvenanceStore()
    attach_to_dgms(store, dfms.dgms)
    attach_to_server(store, dfms.server)
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    deployment = (dfms.env, dfms.server, dfms.server.engine, dfms.dgms,
                  dfms.dgms.transfers)

    def held():
        gc.collect()
        return tracked_reachable(store, telemetry, skip_callables=True,
                                 stop=deployment)

    finished_execution(dfms, 1)
    base = held()
    recorded = len(store)
    finished_execution(dfms, 1 + n_steps)
    assert held() == base
    # The second execution: its start, flow start and end, and end, and
    # a start and a completion per step.
    assert len(store) - recorded == 4 + 2 * (1 + n_steps)
