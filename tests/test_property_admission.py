"""Differential property test: one-walk admission against the reference
sequence of checks.

``DfMSServer.admission_error`` walks a tree for structure only if
``validate_flow`` has not passed it, and takes unknown operations,
required parameters and nesting depth from one walk
(``OperationRegistry.check``) that skips steps admitted under the
registry's current token. The reference runs the checks one after
another: ``validate_request``, ``missing_operations``,
``parameter_problems``, ``Flow.depth`` against ``MAX_NESTING_DEPTH``,
then the grid user. It runs them on an equal tree of new nodes, so no
memo reaches it.

A script submits requests whose trees are drawn from one pool of steps
and flows, so subtrees are shared across requests; some trees pass
``validate_flow`` first, as the builder's do. It then registers an
operation again with one more required parameter and submits every
request again. Each submission goes to one of two servers, the second
with a registry that lacks an operation, so a step admitted before may
now have an unknown operation or miss a parameter. Every answer must
be the reference's, word for word, and the same when the request is
admitted again.
"""

from dataclasses import replace

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.errors import DGLValidationError
from repro.dfms import DfMSServer, bind_default_operations
from repro.dfms.engine import MAX_NESTING_DEPTH
from repro.dgl import (
    DataGridRequest,
    Flow,
    FlowLogic,
    Operation,
    OperationRegistry,
    Step,
    validate_flow,
    validate_request,
)
from repro.grid import DataGridManagementSystem, DomainRole
from repro.network import Topology
from repro.sim import Environment
from tests.test_property_flow_walk import child_names, flows, patterns, steps

ENV = Environment()
DGMS = DataGridManagementSystem(ENV, Topology())
DGMS.register_domain("sdsc", DomainRole.PRODUCER)
ALICE = DGMS.register_user("alice", "sdsc").qualified_name

#: Registered operations with every parameter they require. A script
#: may make one of them require ``extra`` too, or submit to a server
#: that lacks one.
COMPLETE = {"exec": {}, "srb.get": {"path": "/p"},
            "srb.put": {"path": "/p", "size": 1, "resource": "disk"},
            "dgl.set": {"variable": "x"}, "dgl.noop": {}}
USED = tuple(COMPLETE)

#: Steps a registry admits until a script changes it.
complete_steps = st.builds(
    lambda name, operation: Step(name, Operation(operation,
                                                 COMPLETE[operation])),
    child_names, st.sampled_from(USED))


@st.composite
def complete_flows(draw, depth=0):
    """Flows of complete steps, one to three levels deep."""
    if depth >= 2 or draw(st.booleans()):
        children = draw(st.lists(complete_steps, max_size=2,
                                 unique_by=lambda step: step.name))
    else:
        children = draw(st.lists(complete_flows(depth=depth + 1),
                                 min_size=1, max_size=2,
                                 unique_by=lambda flow: flow.name))
    return Flow(name=draw(child_names), children=children)


def fresh(node):
    """An equal tree of new nodes, none of them marked."""
    if isinstance(node, Step):
        return replace(node)
    return replace(node, children=[fresh(child) for child in node.children])


def reference_answer(server, request):
    """The admission answer, check by check, on a memo-free tree."""
    flow = fresh(request.body)
    try:
        validate_request(replace(request, body=flow))
    except DGLValidationError as exc:
        return f"invalid DGL document: {exc}"
    missing = server.registry.missing_operations(flow)
    if missing:
        return f"unknown operations: {', '.join(missing)}"
    problems = server.registry.parameter_problems(flow)
    if problems:
        return "; ".join(problems)
    depth = flow.depth()
    if depth > MAX_NESTING_DEPTH:
        return (f"flow nests {depth} levels deep; "
                f"the engine supports at most {MAX_NESTING_DEPTH}")
    if request.user not in server.dgms.users:
        return f"unknown grid user {request.user!r}"
    return None


def without(base, dropped):
    """A registry holding ``base``'s operations but ``dropped``."""
    registry = OperationRegistry()
    for name in base.names():
        if name != dropped:
            registry.register(name, base.get(name),
                              required_params=base._required_params[name])
    return registry


@st.composite
def roots(draw, pool_steps, pool_flows):
    """A request tree over pool members, maybe nested past the limit."""
    if pool_flows and draw(st.booleans()):
        children = draw(st.lists(st.sampled_from(pool_flows), max_size=3,
                                 unique_by=lambda flow: flow.name))
    else:
        children = draw(st.lists(st.sampled_from(pool_steps), max_size=3,
                                 unique_by=lambda step: step.name))
    root = Flow(name=draw(child_names),
                logic=FlowLogic(pattern=draw(patterns)), children=children)
    # Chains that leave the deepest branch just under, at or over the
    # limit.
    for _ in range(draw(st.sampled_from(
            [0] * 8 + [MAX_NESTING_DEPTH - k for k in range(4)]))):
        root = Flow(name="n", children=[root])
    return root


@st.composite
def requests(draw, pool_steps, pool_flows):
    return DataGridRequest(
        user=draw(st.sampled_from([ALICE, ALICE, "mallory@nowhere", ""])),
        virtual_organization="vo", body=draw(roots(pool_steps, pool_flows)))


@st.composite
def scripts(draw):
    """Requests over one shared pool, submitted, then a registration,
    then submitted again."""
    pool_steps = draw(st.lists(complete_steps | steps, min_size=1,
                               max_size=5))
    pool_flows = draw(st.lists(complete_flows() | flows(), max_size=3))
    drawn = draw(st.lists(requests(pool_steps, pool_flows), min_size=1,
                          max_size=4))
    lacking = st.integers(0, 2).map(lambda n: n == 0)
    events = [("submit", request, draw(st.booleans()), draw(lacking))
              for request in drawn]
    events.append(("require", draw(st.sampled_from(USED))))
    events.extend(("submit", request, False, draw(lacking))
                  for request in draw(st.permutations(drawn)))
    return draw(st.sampled_from(USED)), events


def run(script):
    """Play ``script``; one record per submission: the answer, its
    reference, the answer again, and what the tree shared."""
    dropped, events = script
    full = DfMSServer(ENV, DGMS, registry=bind_default_operations())
    lacking = DfMSServer(ENV, DGMS, name="matrix-2",
                         registry=without(full.registry, dropped))
    seen = set()
    records = []
    for event in events:
        if event[0] == "require":
            registry, name = full.registry, event[1]
            registry.register(
                name, registry.get(name), replace=True,
                required_params=registry._required_params[name]
                + ("extra",))
            continue
        _, request, prevalidate, on_lacking = event
        if prevalidate:
            try:
                validate_flow(request.body)
            except DGLValidationError:
                pass
        walked = list(request.body.walk())
        nodes = [node for _, _, node in walked]
        server = lacking if on_lacking else full
        # Steps an earlier check admitted, under this registry or another.
        remembered = [(path, node) for path, _, node in walked
                      if isinstance(node, Step)
                      and node._admitted is not None]
        reference = reference_answer(server, request)
        text = reference or ""
        unknown = (text.split(": ", 1)[1].split(", ")
                   if text.startswith("unknown operations") else ())
        records.append({
            "answer": server.admission_error(request),
            "reference": reference,
            "again": server.admission_error(request),
            "text": text,
            "shared": any(id(node) in seen for node in nodes),
            "remembered refused": any(
                node.operation.name in unknown or f"step {path!r}: " in text
                for path, node in remembered),
            "rule unknown": any(
                action.operation.name not in server.registry
                for node in nodes
                for rule in (node.rules if isinstance(node, Step)
                             else node.logic.rules)
                for action in rule.actions),
        })
        seen.update(id(node) for node in nodes)
    return records


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scripts())
def test_admission_matches_the_reference_sequence(script):
    for record in run(script):
        assert record["answer"] == record["reference"]
        assert record["again"] == record["reference"]


#: What the scripts must reach, so that the property cannot pass
#: vacuously: each case names a test on one submission's record.
CASES = {
    "admitted": lambda record: record["reference"] is None,
    "no user": lambda record: "needs a grid user" in record["text"],
    "duplicate variables": lambda record: "duplicate variable"
    in record["text"],
    "empty condition": lambda record: "empty condition" in record["text"],
    "bad switch default": lambda record: "names no child" in record["text"],
    "empty parameter name": lambda record: "empty operation parameter"
    in record["text"],
    "empty rule parameter name": lambda record: (
        "empty operation parameter" in record["text"]
        and " rule " in record["text"]),
    "unknown operation": lambda record: record["text"].startswith(
        "unknown operations"),
    "unknown rule operation": lambda record: record["rule unknown"],
    "missing parameter": lambda record: "missing required"
    in record["text"],
    "too deep": lambda record: "levels deep" in record["text"],
    "unknown user": lambda record: "unknown grid user" in record["text"],
    "shared and admitted": lambda record: (record["shared"]
                                           and record["reference"] is None),
    # A step admitted before, refused now for its own operation: a
    # registration or a registry without it, which no memo may hide.
    "admitted step refused": lambda record: record["remembered refused"],
}


def test_scripts_reach_every_case():
    # Derandomized, so the same scripts are drawn on every run.
    reached = set()

    @settings(max_examples=150, database=None, derandomize=True,
              phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(scripts())
    def cover(script):
        for record in run(script):
            reached.update(name for name, case in CASES.items()
                           if case(record))

    cover()
    assert sorted(set(CASES) - reached) == []
