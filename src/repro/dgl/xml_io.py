"""DGL XML serialization and parsing.

DGL "is an XML-Schema specification" (§4); this module is the concrete
wire format: :func:`to_xml` / :func:`from_xml` round-trip every request and
response document through ``xml.etree.ElementTree``. Values keep their
types via a ``type`` attribute, so a numeric variable survives the trip.

It is also the one codec every DfMS document shares. MoML
(:mod:`repro.dgl.moml`), trigger definitions and the infrastructure
description read attributes through :func:`_attr` (booleans through
:func:`_bool`), typed values through :func:`_set_value` /
:func:`_get_value`, control patterns through :data:`_PATTERNS`, and
trees through :func:`_build_tree`, which keeps no Python stack per
level, so a document of any depth parses.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import DGLParseError
from repro.dgl.model import (
    DEFAULT_LOGIC,
    SEQUENTIAL,
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
    RequestRejection,
    Sequential,
    Step,
    SwitchCase,
    UserDefinedRule,
    Variable,
    WhileLoop,
)

__all__ = ["to_xml", "from_xml", "request_to_xml", "request_from_xml",
           "response_to_xml", "response_from_xml"]


# --------------------------------------------------------------------------
# The shared codec
# --------------------------------------------------------------------------

#: The default of an attribute that must be present.
_REQUIRED = object()


def _attr(element: ET.Element, name: str, convert: Callable = str,
          default: object = _REQUIRED):
    """Attribute ``name`` of ``element``, read through ``convert``.

    ``default`` is the text a missing attribute reads as; a missing
    attribute with default None reads as None. A missing required
    attribute, or text ``convert`` refuses, raises :class:`DGLParseError`.
    """
    text = element.get(name, default)
    if text is None:
        return None
    if text is _REQUIRED:
        raise DGLParseError(
            f"<{element.tag}> is missing required attribute {name!r}")
    try:
        return convert(text)
    except ValueError:
        raise DGLParseError(f"<{element.tag}> has a malformed {name!r} "
                            f"attribute: {text!r}") from None


def _bool(text: str) -> bool:
    """A boolean attribute: exactly ``true`` or ``false``."""
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(text)


def _depth(text: str) -> int:
    """A status query's ``maxDepth``: a non-negative integer."""
    depth = int(text)
    if depth < 0:
        raise ValueError(text)
    return depth


#: How the text of each non-null ``type`` reads.
_VALUE_TYPES = {"int": int, "float": float, "str": str}


def _set_value(element: ET.Element, value) -> None:
    if value is None:
        element.set("type", "null")
        element.set("value", "")
    elif isinstance(value, bool):
        raise DGLParseError("boolean values are not part of DGL's value model")
    elif isinstance(value, int):
        element.set("type", "int")
        element.set("value", str(value))
    elif isinstance(value, float):
        element.set("type", "float")
        element.set("value", repr(value))
    else:
        element.set("type", "str")
        element.set("value", str(value))


def _get_value(element: ET.Element):
    kind = element.get("type", "str")
    if kind == "null":
        return None
    if kind not in _VALUE_TYPES:
        raise DGLParseError(f"unknown value type {kind!r}")
    return _attr(element, "value", _VALUE_TYPES[kind], "")


def _count(text: str) -> Union[int, str]:
    """A repeat count: an integer, or else an expression."""
    try:
        return int(text)
    except ValueError:
        return text


#: Each control pattern's wire name and attributes, in written order, as
#: ``(attribute, field, convert, default)``; ``default`` is as for
#: :func:`_attr`, and an attribute whose text equals it is not written.
#: DGL XML writes a pattern as an element of ``<flowLogic>``; MoML as a
#: ``flowLogic`` property naming it plus one property per attribute.
_PATTERNS = {
    Sequential: ("sequential", ()),
    Parallel: ("parallel", (("maxConcurrent", "max_concurrent", int, "0"),)),
    WhileLoop: ("while", (("condition", "condition", str, _REQUIRED),)),
    Repeat: ("repeat", (("count", "count", _count, _REQUIRED),)),
    ForEach: ("forEach", (("itemVariable", "item_variable", str, _REQUIRED),
                          ("collection", "collection", str, None),
                          ("query", "query", str, None),
                          ("items", "items", str, None))),
    SwitchCase: ("switch", (("expression", "expression", str, _REQUIRED),
                            ("default", "default", str, None))),
}
_PATTERN_OF_WIRE = {wire: (kind, attributes)
                    for kind, (wire, attributes) in _PATTERNS.items()}


def _pattern_attributes(pattern) -> Tuple[str, Dict[str, str]]:
    """The wire name of ``pattern`` and the attributes that encode it."""
    try:
        wire, attributes = _PATTERNS[type(pattern)]
    except KeyError:
        raise DGLParseError(
            f"unknown control pattern {type(pattern).__name__}") from None
    encoded = {}
    for attribute, field_name, _, default in attributes:
        value = getattr(pattern, field_name)
        text = None if value is None else str(value)
        if text != default:
            encoded[attribute] = text
    return wire, encoded


def _parse_pattern(element: ET.Element):
    """The control pattern ``element`` encodes; its tag is the wire name."""
    try:
        kind, attributes = _PATTERN_OF_WIRE[element.tag]
    except KeyError:
        raise DGLParseError(
            f"unknown control pattern element <{element.tag}>") from None
    return kind(**{field_name: _attr(element, attribute, convert, default)
                   for attribute, field_name, convert, default in attributes})


def _build_tree(root: ET.Element,
                children_of: Callable[[ET.Element], List[ET.Element]],
                build: Callable):
    """Build the node tree under ``root`` bottom-up from an explicit stack.

    ``children_of(element)`` lists the elements whose nodes ``element``'s
    node holds; ``build(element, nodes)`` makes that node once they are
    built. Nodes are built in the order recursive descent builds them.
    """
    built: List = []
    stack: List[Tuple[ET.Element, Optional[List[ET.Element]]]] = [(root, None)]
    while stack:
        element, children = stack.pop()
        if children is None:
            children = children_of(element)
            stack.append((element, children))
            stack.extend((child, None) for child in reversed(children))
        else:
            start = len(built) - len(children)
            nodes = built[start:]
            del built[start:]
            built.append(build(element, nodes))
    return built[0]


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def _metadata_element(metadata: DocumentMetadata) -> ET.Element:
    element = ET.Element("documentMetadata")
    if metadata.document_id is not None:
        element.set("documentId", metadata.document_id)
    if metadata.created_at is not None:
        element.set("createdAt", repr(metadata.created_at))
    if metadata.description is not None:
        element.set("description", metadata.description)
    return element


def _operation_element(operation: Operation) -> ET.Element:
    element = ET.Element("operation", name=operation.name)
    if operation.assign_to is not None:
        element.set("assignTo", operation.assign_to)
    parameters = operation.parameters
    for name in sorted(parameters):
        parameter = ET.SubElement(element, "parameter", name=name)
        _set_value(parameter, parameters[name])
    return element


def _rule_element(rule: UserDefinedRule) -> ET.Element:
    element = ET.Element("userDefinedRule", name=rule.name)
    condition = ET.SubElement(element, "condition")
    condition.text = rule.condition
    for action in rule.actions:
        action_el = ET.SubElement(element, "action", name=action.name)
        action_el.append(_operation_element(action.operation))
    return element


def _variables_element(variables) -> Optional[ET.Element]:
    if not variables:
        return None
    element = ET.Element("variables")
    for variable in variables:
        var_el = ET.SubElement(element, "variable", name=variable.name)
        _set_value(var_el, variable.value)
    return element


def _logic_element(logic: FlowLogic) -> ET.Element:
    element = ET.Element("flowLogic")
    ET.SubElement(element, *_pattern_attributes(logic.pattern))
    for rule in logic.rules:
        element.append(_rule_element(rule))
    return element


def _step_element(step: Step) -> ET.Element:
    element = ET.Element("step", name=step.name)
    variables = _variables_element(step.variables)
    if variables is not None:
        element.append(variables)
    requirements = step.requirements
    if requirements:
        req_root = ET.SubElement(element, "requirements")
        for name in sorted(requirements):
            requirement = ET.SubElement(req_root, "requirement", name=name)
            _set_value(requirement, requirements[name])
    element.append(_operation_element(step.operation))
    for rule in step.rules:
        element.append(_rule_element(rule))
    return element


def _flow_element(flow: Flow) -> ET.Element:
    element = ET.Element("flow", name=flow.name)
    variables = _variables_element(flow.variables)
    if variables is not None:
        element.append(variables)
    element.append(_logic_element(flow.logic))
    if flow.children:
        children = ET.SubElement(element, "children")
        for child in flow.children:
            if isinstance(child, Flow):
                children.append(_flow_element(child))
            else:
                children.append(_step_element(child))
    return element


def _status_element(status: FlowStatus) -> ET.Element:
    element = ET.Element("flowStatus", name=status.name,
                         state=status.state.value)
    if status.started_at is not None:
        element.set("startedAt", repr(status.started_at))
    if status.finished_at is not None:
        element.set("finishedAt", repr(status.finished_at))
    if status.error is not None:
        element.set("error", status.error)
    if status.iterations:
        element.set("iterations", str(status.iterations))
    for child in status.children:
        element.append(_status_element(child))
    return element


def request_to_xml(request: DataGridRequest) -> str:
    """Serialize a request document to an XML string."""
    root = ET.Element("dataGridRequest",
                      asynchronous="true" if request.asynchronous else "false")
    root.append(_metadata_element(request.metadata))
    user = ET.SubElement(root, "gridUser")
    user.text = request.user
    vo = ET.SubElement(root, "virtualOrganization")
    vo.text = request.virtual_organization
    if isinstance(request.body, FlowStatusQuery):
        query = ET.SubElement(root, "flowStatusQuery",
                              requestId=request.body.request_id)
        if request.body.path is not None:
            query.set("path", request.body.path)
        if request.body.max_depth is not None:
            query.set("maxDepth", str(request.body.max_depth))
    else:
        root.append(_flow_element(request.body))
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def response_to_xml(response: DataGridResponse) -> str:
    """Serialize a response document to an XML string."""
    root = ET.Element("dataGridResponse", requestId=response.request_id)
    root.append(_metadata_element(response.metadata))
    if isinstance(response.body, RequestAcknowledgement):
        ack = ET.SubElement(root, "requestAcknowledgement",
                            requestId=response.body.request_id,
                            state=response.body.state.value,
                            valid="true" if response.body.valid else "false")
        if response.body.message is not None:
            ack.set("message", response.body.message)
    elif isinstance(response.body, RequestRejection):
        rejection = ET.SubElement(root, "requestRejection",
                                  requestId=response.body.request_id,
                                  reason=response.body.reason)
        if response.body.message is not None:
            rejection.set("message", response.body.message)
        if response.body.retry_after_s is not None:
            rejection.set("retryAfter", repr(response.body.retry_after_s))
    else:
        root.append(_status_element(response.body))
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def to_xml(document: Union[DataGridRequest, DataGridResponse]) -> str:
    """Serialize either document kind."""
    if isinstance(document, DataGridRequest):
        return request_to_xml(document)
    if isinstance(document, DataGridResponse):
        return response_to_xml(document)
    raise DGLParseError(f"cannot serialize {type(document).__name__}")


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def _parse_metadata(element: Optional[ET.Element]) -> DocumentMetadata:
    if element is None:
        return DocumentMetadata()
    return DocumentMetadata(
        document_id=element.get("documentId"),
        created_at=_attr(element, "createdAt", float, None),
        description=element.get("description"))


def _parse_operation(element: ET.Element) -> Operation:
    parameters = {}
    for parameter in element.findall("parameter"):
        parameters[_attr(parameter, "name")] = _get_value(parameter)
    return Operation(name=_attr(element, "name"), parameters=parameters,
                     assign_to=element.get("assignTo"))


def _parse_rule(element: ET.Element) -> UserDefinedRule:
    condition = element.find("condition")
    if condition is None or condition.text is None:
        raise DGLParseError("userDefinedRule needs a <condition>")
    actions = []
    for action_el in element.findall("action"):
        operation_el = action_el.find("operation")
        if operation_el is None:
            raise DGLParseError("rule action needs an <operation>")
        actions.append(Action(name=_attr(action_el, "name"),
                              operation=_parse_operation(operation_el)))
    return UserDefinedRule(name=_attr(element, "name"),
                           condition=condition.text, actions=actions)


def _parse_variables(element: Optional[ET.Element]):
    if element is None:
        return []
    return [Variable(name=_attr(v, "name"), value=_get_value(v))
            for v in element.findall("variable")]


def _parse_logic(element: Optional[ET.Element]) -> FlowLogic:
    if element is None:
        return DEFAULT_LOGIC
    pattern = None
    rules = []
    for child in element:
        if child.tag in _PATTERN_OF_WIRE:
            if pattern is not None:
                raise DGLParseError("flowLogic has more than one control pattern")
            pattern = _parse_pattern(child)
        elif child.tag == "userDefinedRule":
            rules.append(_parse_rule(child))
        else:
            raise DGLParseError(f"unexpected element <{child.tag}> in flowLogic")
    return FlowLogic(pattern=pattern or SEQUENTIAL, rules=rules)


def _parse_step(element: ET.Element) -> Step:
    operation_el = element.find("operation")
    if operation_el is None:
        raise DGLParseError(
            f"step {element.get('name')!r} needs exactly one <operation>")
    requirements = {}
    req_root = element.find("requirements")
    if req_root is not None:
        for requirement in req_root.findall("requirement"):
            requirements[_attr(requirement, "name")] = _get_value(requirement)
    return Step(name=_attr(element, "name"),
                operation=_parse_operation(operation_el),
                variables=_parse_variables(element.find("variables")),
                rules=[_parse_rule(r) for r in element.findall("userDefinedRule")],
                requirements=requirements)


def _flow_children(element: ET.Element) -> List[ET.Element]:
    children = element.find("children") if element.tag == "flow" else None
    return [] if children is None else list(children)


def _flow_node(element: ET.Element, children: list) -> Union[Flow, Step]:
    if element.tag == "step":
        return _parse_step(element)
    if element.tag != "flow":
        raise DGLParseError(f"unexpected element <{element.tag}> in children")
    return Flow(name=_attr(element, "name"),
                logic=_parse_logic(element.find("flowLogic")),
                variables=_parse_variables(element.find("variables")),
                children=children)


def _parse_flow(element: ET.Element) -> Flow:
    return _build_tree(element, _flow_children, _flow_node)


def _status_node(element: ET.Element, children: list) -> FlowStatus:
    return FlowStatus(
        name=_attr(element, "name"),
        state=_attr(element, "state", ExecutionState),
        started_at=_attr(element, "startedAt", float, None),
        finished_at=_attr(element, "finishedAt", float, None),
        error=element.get("error"),
        iterations=_attr(element, "iterations", int, "0"),
        children=children or ())


def request_from_xml(text: str) -> DataGridRequest:
    """Parse a request document from an XML string."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DGLParseError(f"malformed XML: {exc}") from None
    if root.tag != "dataGridRequest":
        raise DGLParseError(f"expected <dataGridRequest>, got <{root.tag}>")
    user_el = root.find("gridUser")
    vo_el = root.find("virtualOrganization")
    if user_el is None or not user_el.text:
        raise DGLParseError("request needs a <gridUser>")
    flow_el = root.find("flow")
    query_el = root.find("flowStatusQuery")
    if (flow_el is None) == (query_el is None):
        raise DGLParseError(
            "request needs exactly one of <flow> or <flowStatusQuery>")
    if flow_el is not None:
        body: Union[Flow, FlowStatusQuery] = _parse_flow(flow_el)
    else:
        body = FlowStatusQuery(
            request_id=_attr(query_el, "requestId"),
            path=query_el.get("path"),
            max_depth=_attr(query_el, "maxDepth", _depth, None))
    return DataGridRequest(
        user=user_el.text,
        virtual_organization=(vo_el.text or "") if vo_el is not None else "",
        body=body,
        metadata=_parse_metadata(root.find("documentMetadata")),
        asynchronous=_attr(root, "asynchronous", _bool, "false"))


def response_from_xml(text: str) -> DataGridResponse:
    """Parse a response document from an XML string."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DGLParseError(f"malformed XML: {exc}") from None
    if root.tag != "dataGridResponse":
        raise DGLParseError(f"expected <dataGridResponse>, got <{root.tag}>")
    ack_el = root.find("requestAcknowledgement")
    rejection_el = root.find("requestRejection")
    status_el = root.find("flowStatus")
    if [ack_el, rejection_el, status_el].count(None) != 2:
        raise DGLParseError(
            "response needs exactly one of <requestAcknowledgement>, "
            "<requestRejection> or <flowStatus>")
    if ack_el is not None:
        body: Union[FlowStatus, RequestAcknowledgement,
                    RequestRejection] = RequestAcknowledgement(
            request_id=_attr(ack_el, "requestId"),
            state=_attr(ack_el, "state", ExecutionState),
            valid=_attr(ack_el, "valid", _bool, "true"),
            message=ack_el.get("message"))
    elif rejection_el is not None:
        body = RequestRejection(
            request_id=_attr(rejection_el, "requestId"),
            reason=_attr(rejection_el, "reason"),
            message=rejection_el.get("message"),
            retry_after_s=_attr(rejection_el, "retryAfter", float, None))
    else:
        body = _build_tree(status_el,
                           lambda element: element.findall("flowStatus"),
                           _status_node)
    return DataGridResponse(
        request_id=_attr(root, "requestId"),
        body=body,
        metadata=_parse_metadata(root.find("documentMetadata")))


def from_xml(text: str) -> Union[DataGridRequest, DataGridResponse]:
    """Parse either document kind, dispatching on the root tag."""
    stripped = text.lstrip()
    if stripped.startswith("<dataGridRequest"):
        return request_from_xml(text)
    if stripped.startswith("<dataGridResponse"):
        return response_from_xml(text)
    raise DGLParseError("not a DGL document (unknown root element)")
