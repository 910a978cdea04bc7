"""Differential property test: every loop over ``Flow.walk`` against the
recursive walker it replaced.

The reference functions below are frozen copies of the recursive
implementations of ``validate_flow``, ``missing_operations``,
``parameter_problems``, ``Flow.depth``, ``Flow.count_steps``,
``bind_flow_early``, ``pinned_steps`` and ``DfMSNetwork._collection_hint``,
plus ``ref_walk``, the walk itself stated recursively. On generated flows
the iterative versions must give the same outcome in the same order: the
same first structure error, the same problem list, the same placements
made in the same order.

Unlike ``test_property_dgl_xml.py``, these strategies aim at the checks:
duplicate variable names, blank rule conditions, switch defaults naming no
child, empty parameter names, registered operations with partial
parameters (in steps and in rule actions), unknown operations, pinned and
unpinned ``exec`` steps, and for-each collections.
"""

from dataclasses import replace
from types import SimpleNamespace

from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.errors import DGLValidationError
from repro.dfms import bind_default_operations
from repro.dfms.p2p import DfMSNetwork
from repro.dfms.scheduler import bind_flow_early, pinned_steps
from repro.dfms.scheduler.rewriter import task_spec_for_exec
from repro.dgl import (
    Action,
    Flow,
    FlowLogic,
    ForEach,
    Operation,
    Parallel,
    Sequential,
    Step,
    SwitchCase,
    UserDefinedRule,
    Variable,
    validate_flow,
)

REGISTRY = bind_default_operations()


# -- the frozen recursive reference -------------------------------------------


def ref_walk(node, path, depth):
    yield path, depth, node
    if isinstance(node, Flow):
        for child in node.children:
            child_depth = depth + 1 if isinstance(child, Flow) else depth
            yield from ref_walk(child, f"{path}/{child.name}", child_depth)


def _ref_check_unique_variables(owner, variables):
    names = [variable.name for variable in variables]
    if len(names) != len(set(names)):
        raise DGLValidationError(f"{owner} declares duplicate variable names")


def _ref_check_rules(owner, rules):
    for rule in rules:
        if not rule.condition.strip():
            raise DGLValidationError(
                f"{owner}: rule {rule.name!r} has an empty condition")
        for action in rule.actions:
            for parameter in action.operation.parameters:
                if not parameter:
                    raise DGLValidationError(
                        f"{owner}: rule {rule.name!r}: empty operation "
                        "parameter name")


def _ref_validate_step(step, path):
    where = f"step {path!r}"
    _ref_check_unique_variables(where, step.variables)
    _ref_check_rules(where, step.rules)
    for parameter in step.operation.parameters:
        if not parameter:
            raise DGLValidationError(f"{where}: empty operation parameter name")


def ref_validate_flow(flow, _path=""):
    path = f"{_path}/{flow.name}" if _path else flow.name
    where = f"flow {path!r}"
    _ref_check_unique_variables(where, flow.variables)
    _ref_check_rules(where, flow.logic.rules)
    pattern = flow.logic.pattern
    default = getattr(pattern, "default", None)
    if default is not None and flow.child(default) is None:
        raise DGLValidationError(
            f"{where}: switch default {default!r} names no child")
    for child in flow.children:
        if isinstance(child, Flow):
            ref_validate_flow(child, path)
        else:
            _ref_validate_step(child, f"{path}/{child.name}")


def ref_missing_operations(registry, flow):
    missing = set()

    def _check_rules(rules):
        for rule in rules:
            for action in rule.actions:
                if action.operation.name not in registry:
                    missing.add(action.operation.name)

    def _walk(node):
        if isinstance(node, Step):
            if node.operation.name not in registry:
                missing.add(node.operation.name)
            _check_rules(node.rules)
            return
        _check_rules(node.logic.rules)
        for child in node.children:
            _walk(child)

    _walk(flow)
    return sorted(missing)


def ref_parameter_problems(registry, flow):
    problems = []

    def _check_operation(where, operation):
        required = registry._required_params.get(operation.name)
        if not required:
            return
        missing = [parameter for parameter in required
                   if parameter not in operation.parameters]
        if missing:
            problems.append(
                f"{where}: {operation.name} is missing required "
                f"parameter(s) {', '.join(missing)}")

    def _check_rules(where, rules):
        for rule in rules:
            for action in rule.actions:
                _check_operation(f"{where} rule {rule.name!r}",
                                 action.operation)

    def _walk(node, path):
        if isinstance(node, Step):
            _check_operation(f"step {path!r}", node.operation)
            _check_rules(f"step {path!r}", node.rules)
            return
        _check_rules(f"flow {path!r}", node.logic.rules)
        for child in node.children:
            _walk(child, f"{path}/{child.name}")

    _walk(flow, flow.name)
    return problems


def ref_count_steps(flow):
    total = 0
    for child in flow.children:
        total += ref_count_steps(child) if isinstance(child, Flow) else 1
    return total


def ref_depth(flow):
    child_depths = [ref_depth(child) for child in flow.children
                    if isinstance(child, Flow)]
    return 1 + (max(child_depths) if child_depths else 0)


def ref_bind_flow_early(flow, virtual_organization, placer):
    def _bind(node):
        children = []
        for child in node.children:
            if isinstance(child, Flow):
                child = _bind(child)
            elif (child.operation.name == "exec"
                  and "compute" not in child.operation.parameters):
                task = task_spec_for_exec(child)
                resource = placer.place(virtual_organization, task)
                child = replace(child, operation=replace(
                    child.operation,
                    parameters={**child.operation.parameters,
                                "compute": resource.name}))
            children.append(child)
        return replace(node, children=children)

    return _bind(flow)


def ref_pinned_steps(flow):
    pins = []

    def _walk(node):
        for child in node.children:
            if isinstance(child, Flow):
                _walk(child)
            elif (child.operation.name == "exec"
                  and "compute" in child.operation.parameters):
                pins.append((child.name, child.operation.parameters["compute"]))

    _walk(flow)
    return pins


def ref_collection_hint(flow):
    collection = getattr(flow.logic.pattern, "collection", None)
    if collection:
        return collection
    for child in flow.children:
        if isinstance(child, Flow):
            hint = ref_collection_hint(child)
            if hint:
                return hint
    return None


# -- strategies aimed at the checks ---------------------------------------------

#: ``exec`` (the rewriter's target, so half of all draws), registered
#: operations with required parameters, one with none, and names the
#: registry does not know.
operation_names = st.just("exec") | st.sampled_from([
    "srb.put", "srb.get", "srb.migrate", "srb.delete", "dgl.set",
    "fed.copy", "dgl.noop", "srb.putt", "no.such.op"])
#: Some required by the operations above, ``compute`` (an early-binding
#: pin), and the empty name the schema refuses.
parameter_names = st.sampled_from([
    "path", "size", "resource", "to_domain", "from_physical", "variable",
    "src_zone", "compute", ""])
child_names = st.sampled_from(["a", "b", "c", "d"])
variable_names = st.sampled_from(["x", "y", "z"])

operations = st.builds(
    Operation, name=operation_names,
    parameters=st.dictionaries(parameter_names, st.sampled_from(["v", 1]),
                               max_size=3))

#: Lists may repeat a name: duplicate variables are a structure error.
variable_lists = st.lists(st.builds(Variable, name=variable_names,
                                    value=st.just(1)), max_size=2)


@st.composite
def rules(draw):
    actions = draw(st.lists(
        st.builds(Action, name=st.sampled_from(["p", "q", "r"]),
                  operation=operations),
        min_size=1, max_size=2, unique_by=lambda action: action.name))
    return UserDefinedRule(
        name=draw(st.sampled_from(["beforeEntry", "afterExit", "onError"])),
        condition=draw(st.sampled_from(["true", "'p'", "", "   "])),
        actions=actions)


rule_lists = st.lists(rules(), max_size=1)

steps = st.builds(Step, name=child_names, operation=operations,
                  variables=variable_lists, rules=rule_lists)

patterns = st.one_of(
    st.builds(Sequential),
    st.builds(Parallel),
    st.builds(ForEach, item_variable=st.just("item"),
              collection=st.sampled_from(["/grid/a", "/grid/b"])),
    st.builds(ForEach, item_variable=st.just("item"), items=st.just("[]")),
    st.builds(SwitchCase, expression=st.just("mode"),
              default=st.none() | child_names),
)


@st.composite
def flows(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        children = draw(st.lists(steps, max_size=3,
                                 unique_by=lambda step: step.name))
    else:
        children = draw(st.lists(flows(depth=depth + 1), max_size=2,
                                 unique_by=lambda flow: flow.name))
    return Flow(name=draw(child_names),
                logic=FlowLogic(pattern=draw(patterns), rules=draw(rule_lists)),
                variables=draw(variable_lists), children=children)


def outcome(check, flow):
    """None if ``check`` accepts ``flow``, else the error it raised."""
    try:
        check(flow)
    except DGLValidationError as exc:
        return str(exc)
    return None


class RecordingPlacer:
    """Names a fresh resource per call and remembers every call."""

    def __init__(self):
        self.calls = []

    def place(self, virtual_organization, task):
        self.calls.append((virtual_organization, task))
        return SimpleNamespace(name=f"compute-{len(self.calls)}")


def first_error(flow):
    """The reference's first structure error for ``flow``, or ''."""
    return outcome(ref_validate_flow, flow) or ""


def placements(flow):
    """The placer calls the reference early binding makes for ``flow``."""
    placer = RecordingPlacer()
    ref_bind_flow_early(flow, "vo", placer)
    return placer.calls


# -- the properties ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(flows())
def test_checks_match_the_recursive_reference(flow):
    assert [(path, depth, id(node)) for path, depth, node in flow.walk()] \
        == [(path, depth, id(node))
            for path, depth, node in ref_walk(flow, flow.name, 1)]
    assert outcome(validate_flow, flow) == outcome(ref_validate_flow, flow)
    assert REGISTRY.missing_operations(flow) == ref_missing_operations(
        REGISTRY, flow)
    assert REGISTRY.parameter_problems(flow) == ref_parameter_problems(
        REGISTRY, flow)
    assert flow.depth() == ref_depth(flow)
    assert flow.count_steps() == ref_count_steps(flow)
    assert pinned_steps(flow) == ref_pinned_steps(flow)
    assert DfMSNetwork._collection_hint(flow) == ref_collection_hint(flow)


@settings(max_examples=100, deadline=None)
@given(flows())
def test_early_binding_places_in_reference_order(flow):
    placer, reference = RecordingPlacer(), RecordingPlacer()
    bound = bind_flow_early(flow, "vo", placer)
    assert bound == ref_bind_flow_early(flow, "vo", reference)
    assert placer.calls == reference.calls
    assert pinned_steps(bound) == ref_pinned_steps(bound)


def test_strategies_reach_every_check():
    # Guard against a strategy drifting into only-valid documents, which
    # would let the properties above pass vacuously. Derandomized, so the
    # search is the same on every run.
    quiet = settings(max_examples=1000, database=None, derandomize=True,
                     phases=[Phase.generate],
                     suppress_health_check=list(HealthCheck))
    for reached in (
            lambda f: "duplicate variable" in first_error(f),
            lambda f: "empty condition" in first_error(f),
            lambda f: "names no child" in first_error(f),
            lambda f: "empty operation parameter" in first_error(f),
            lambda f: ref_missing_operations(REGISTRY, f),
            lambda f: any(" rule " in problem for problem in
                          ref_parameter_problems(REGISTRY, f)),
            lambda f: ref_pinned_steps(f),
            lambda f: len(placements(f)) > 1,
            # A hint found below the root, not on it.
            lambda f: ref_collection_hint(f) not in (
                None, getattr(f.logic.pattern, "collection", None)),
    ):
        find(flows(), reached, settings=quiet)
