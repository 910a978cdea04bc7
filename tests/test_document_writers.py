"""Pin the bytes every DfMS document writer produces.

One deterministic corpus covers every control pattern, every value type,
rules, requirements, document metadata, a status tree, trigger
definitions and an infrastructure description. Each document goes
through its writer, and the sha256 of the joined output is compared with
a recorded digest: a reader/writer refactor must not change one byte on
the wire. Each document must also read back to what was written.
"""

import hashlib

from repro.dfms.compute import ComputeResource
from repro.dfms.idl import (
    SLA,
    DomainDescription,
    InfrastructureDescription,
    StorageOffer,
)
from repro.dgl import (
    Action,
    DataGridRequest,
    DataGridResponse,
    DocumentMetadata,
    ExecutionState,
    Flow,
    FlowLogic,
    FlowStatus,
    FlowStatusQuery,
    ForEach,
    Operation,
    Parallel,
    Repeat,
    RequestAcknowledgement,
    Sequential,
    Step,
    SwitchCase,
    UserDefinedRule,
    Variable,
    WhileLoop,
    flow_to_moml,
    moml_to_flow,
    request_from_xml,
    request_to_xml,
    response_from_xml,
    response_to_xml,
)
from repro.grid.events import EventKind, EventPhase
from repro.grid.users import UserRegistry
from repro.triggers import DatagridTrigger, trigger_from_xml, trigger_to_xml

#: sha256 of :func:`corpus_bytes`, recorded before the readers and writers
#: shared one codec.
WRITER_DIGEST = ("e05557126039b21eb739abd12ff7fb6d"
                 "05e149663723f4cff503c58ef15c38b6")

#: Values of every type DGL carries, with characters XML must escape.
VALUES = [None, 0, -7, 12345678901234, 0.5, -2.25e-9, 1e300, "",
          "plain", "3", "a & b < c > d \"q\" 'a'", "ünïcødé ✓", "${f}/x"]

PATTERNS = [
    Sequential(),
    Parallel(),
    Parallel(max_concurrent=4),
    WhileLoop(condition="count < 10"),
    Repeat(count=3),
    Repeat(count="n * 2"),
    ForEach(item_variable="f", collection="/data"),
    ForEach(item_variable="f", collection="/data",
            query="meta:stage = 'raw'"),
    ForEach(item_variable="i", items="[1, 2, 3]"),
    SwitchCase(expression="mode"),
    SwitchCase(expression="mode", default="p0"),
]


def parameters():
    return {f"v{index}": value for index, value in enumerate(VALUES)}


def structural_flow():
    """Every pattern and value type, inside MoML's structural subset."""
    flows = []
    for index, pattern in enumerate(PATTERNS):
        step = Step(name=f"s{index}", operation=Operation(
            "dgl.log", parameters(),
            assign_to="out" if index % 2 else None))
        flows.append(Flow(
            name=f"p{index}", logic=FlowLogic(pattern=pattern),
            variables=[Variable(f"x{n}", value)
                       for n, value in enumerate(VALUES[index:index + 3])],
            children=[step]))
    return Flow(name="structural", logic=FlowLogic(pattern=Sequential()),
                variables=[Variable(f"v{n}", value)
                           for n, value in enumerate(VALUES)],
                children=flows)


def rule(name):
    return UserDefinedRule(name=name, condition="'go' if n > 0 else True",
                           actions=[
                               Action("go", Operation("dgl.log",
                                                      {"message": "go"})),
                               Action("stop", Operation("dgl.noop"))])


def execution_flow():
    """A flow with everything MoML leaves out: rules and requirements."""
    step = Step(name="copy",
                operation=Operation("srb.replicate",
                                    {"path": "${f}", "resource": "tape"},
                                    assign_to="replica"),
                variables=[Variable("retries", 3), Variable("r", 0.25)],
                rules=[rule("onError")],
                requirements={"resourceType": "archive", "min_cores": 4,
                              "min_speed": 1.5})
    inner = Flow(name="inner",
                 logic=FlowLogic(pattern=Parallel(max_concurrent=2),
                                 rules=[rule("beforeEntry"),
                                        rule("afterExit")]),
                 children=[step, Step(name="noop",
                                      operation=Operation("dgl.noop"))])
    return Flow(name="job", children=[inner, structural_flow()])


def status_tree():
    leaf = FlowStatus(name="copy", state=ExecutionState.FAILED,
                      started_at=1.5, finished_at=2.75,
                      error="disk <full> & \"gone\"")
    loop = FlowStatus(name="loop", state=ExecutionState.RUNNING,
                      started_at=0.0, iterations=7,
                      children=[leaf, FlowStatus(
                          name="wait", state=ExecutionState.PENDING)])
    return FlowStatus(name="job", state=ExecutionState.CANCELLED,
                      started_at=0.0, finished_at=1e6,
                      children=[loop, FlowStatus(
                          name="done", state=ExecutionState.COMPLETED,
                          started_at=3.0, finished_at=4.0)])


def documents():
    """(document, writer, reader) for every document in the corpus."""
    registry = UserRegistry()
    owner = registry.register("alice", "sdsc")
    metadata = DocumentMetadata(document_id="doc-1", created_at=1234.5,
                                description="pinned <corpus>")
    requests = [
        DataGridRequest(user="alice@sdsc", virtual_organization="vo",
                        body=execution_flow(), metadata=metadata,
                        asynchronous=True),
        DataGridRequest(user="alice@sdsc", virtual_organization="",
                        body=structural_flow()),
        DataGridRequest(user="bob@ucsd", virtual_organization="vo",
                        body=FlowStatusQuery(request_id="dgr-000007",
                                             path="job/inner/copy")),
        DataGridRequest(user="bob@ucsd", virtual_organization="vo",
                        body=FlowStatusQuery(request_id="dgr-000008")),
    ]
    responses = [
        DataGridResponse(request_id="dgr-000001", metadata=metadata,
                         body=RequestAcknowledgement(
                             request_id="dgr-000001",
                             state=ExecutionState.PENDING)),
        DataGridResponse(request_id="dgr-000002",
                         body=RequestAcknowledgement(
                             request_id="dgr-000002",
                             state=ExecutionState.FAILED, valid=False,
                             message="unknown operation 'srb.putt'")),
        DataGridResponse(request_id="dgr-000003", body=status_tree()),
    ]
    triggers = [
        DatagridTrigger(name="mirror", owner=owner,
                        kinds=frozenset({EventKind.INSERT,
                                         EventKind.METADATA}),
                        action=execution_flow(), phase=EventPhase.BEFORE,
                        path_pattern="/archive/*",
                        condition="meta['class'] == 'master'",
                        priority=5, enabled=False, max_firings=100),
        DatagridTrigger(name="notify", owner=owner,
                        kinds=frozenset({EventKind.DELETE}),
                        action=Operation("dgl.log",
                                         {"message": "gone: ${event_path}"})),
    ]
    idl = InfrastructureDescription()
    idl.add_domain(DomainDescription(
        name="sdsc",
        compute=[ComputeResource("sdsc-a", "sdsc", cores=8,
                                 speed_factor=1.5),
                 ComputeResource("sdsc-b", "sdsc", cores=1)],
        storage=[StorageOffer("sdsc-disk", "disk"),
                 StorageOffer("sdsc-tape", "archive")],
        sla=SLA(allowed_vos=["vo", "cms"], max_concurrent_tasks=3,
                cost_per_cpu_second=0.125)))
    idl.add_domain(DomainDescription(name="ucsd"))
    return ([(doc, request_to_xml, request_from_xml) for doc in requests]
            + [(doc, response_to_xml, response_from_xml)
               for doc in responses]
            + [(structural_flow(), flow_to_moml, moml_to_flow)]
            + [(doc, trigger_to_xml,
                lambda text: trigger_from_xml(text, registry))
               for doc in triggers]
            + [(idl, InfrastructureDescription.to_xml,
                InfrastructureDescription.from_xml)])


def corpus_bytes():
    return "\n\0\n".join(writer(doc) for doc, writer, _ in
                         documents()).encode("utf-8")


def test_every_writer_is_byte_identical_to_the_recorded_digest():
    assert hashlib.sha256(corpus_bytes()).hexdigest() == WRITER_DIGEST


def test_every_document_reads_back_to_what_was_written():
    for document, writer, reader in documents():
        text = writer(document)
        assert writer(reader(text)) == text
