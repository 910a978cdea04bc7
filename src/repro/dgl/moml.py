"""MoML interchange: the IDE's modeling language (§3.2, §5).

"A modeling markup language describes datagridflows and stores it locally
for the users to use again or view the datagridflow rendered on the IDE.
MoML, used in Ptolemy II/Kepler, uses this approach. … The user interface
will be defined by the MoML modeling language, with execution taking place
using the DGL."

This module implements that bridge for the structural subset an IDE
manipulates: a datagridflow drawn as a MoML model — nested
``<entity class="datagridflow.Flow">`` composites holding
``<entity class="datagridflow.Step">`` actors, with ``<property>``
elements for the control pattern, variables, and operation parameters —
converts losslessly to and from DGL :class:`~repro.dgl.model.Flow` trees.
Control patterns and typed values go through DGL XML's own codec
(:mod:`repro.dgl.xml_io`), so both encodings spell and type them alike.

Out of the subset (by design): user-defined rules and step requirements
are execution-logic details the paper keeps in DGL, not in the canvas
model; round-tripping a flow that uses them raises so nothing is silently
dropped.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import List, Union

from repro.errors import DGLParseError, DGLValidationError
from repro.dgl.model import (
    DEFAULT_LOGIC,
    Flow,
    FlowLogic,
    Operation,
    Step,
    Variable,
)
from repro.dgl.xml_io import (
    _build_tree,
    _get_value,
    _parse_pattern,
    _pattern_attributes,
    _set_value,
)

__all__ = ["flow_to_moml", "moml_to_flow"]

_FLOW_CLASS = "datagridflow.Flow"
_STEP_CLASS = "datagridflow.Step"


def _flow_entity(flow: Flow) -> ET.Element:
    if flow.logic.rules:
        raise DGLValidationError(
            f"flow {flow.name!r} has user-defined rules; rules are "
            "execution logic and have no MoML representation")
    entity = ET.Element("entity", name=flow.name)
    entity.set("class", _FLOW_CLASS)
    wire, attributes = _pattern_attributes(flow.logic.pattern)
    ET.SubElement(entity, "property", name="flowLogic", value=wire)
    for name, text in attributes.items():
        ET.SubElement(entity, "property", name=name, value=text)
    for variable in flow.variables:
        var_el = ET.SubElement(entity, "property",
                               name=f"var:{variable.name}")
        _set_value(var_el, variable.value)
    for child in flow.children:
        if isinstance(child, Flow):
            entity.append(_flow_entity(child))
        else:
            entity.append(_step_entity(child))
    return entity


def _step_entity(step: Step) -> ET.Element:
    if step.rules or step.variables or step.requirements:
        raise DGLValidationError(
            f"step {step.name!r} carries rules/variables/requirements; "
            "those are execution logic and have no MoML representation")
    entity = ET.Element("entity", name=step.name)
    entity.set("class", _STEP_CLASS)
    ET.SubElement(entity, "property", name="operation",
                  value=step.operation.name)
    if step.operation.assign_to is not None:
        ET.SubElement(entity, "property", name="assignTo",
                      value=step.operation.assign_to)
    parameters = step.operation.parameters
    for name in sorted(parameters):
        param = ET.SubElement(entity, "property", name=f"param:{name}")
        _set_value(param, parameters[name])
    return entity


def flow_to_moml(flow: Flow) -> str:
    """Serialize a (structural-subset) flow as a MoML model document."""
    root = _flow_entity(flow)
    ET.indent(root)
    header = ('<?xml version="1.0" standalone="no"?>\n'
              '<!DOCTYPE entity PUBLIC "-//UC Berkeley//DTD MoML 1//EN" '
              '"http://ptolemy.eecs.berkeley.edu/xml/dtd/MoML_1.dtd">\n')
    return header + ET.tostring(root, encoding="unicode")


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def _properties(entity: ET.Element) -> dict:
    return {prop.get("name"): prop
            for prop in entity.findall("property")}


def _entity_children(entity: ET.Element) -> List[ET.Element]:
    if entity.get("class") != _FLOW_CLASS:
        return []
    return entity.findall("entity")


def _entity_node(entity: ET.Element, children: list) -> Union[Flow, Step]:
    name = entity.get("name")
    if not name:
        raise DGLParseError("MoML entity needs a name")
    entity_class = entity.get("class")
    properties = _properties(entity)
    if entity_class == _STEP_CLASS:
        operation_prop = properties.get("operation")
        if operation_prop is None:
            raise DGLParseError(f"MoML step {name!r} needs an operation")
        parameters = {
            prop_name[len("param:"):]: _get_value(prop)
            for prop_name, prop in properties.items()
            if prop_name.startswith("param:")}
        assign_prop = properties.get("assignTo")
        return Step(name=name, operation=Operation(
            name=operation_prop.get("value"),
            parameters=parameters,
            assign_to=(assign_prop.get("value")
                       if assign_prop is not None else None)))
    if entity_class == _FLOW_CLASS:
        variables = [Variable(prop_name[len("var:"):], _get_value(prop))
                     for prop_name, prop in properties.items()
                     if prop_name.startswith("var:")]
        logic = DEFAULT_LOGIC
        named = properties.get("flowLogic")
        if named is not None:
            # The properties read as the attributes of an element named
            # after the pattern, the way DGL XML's <flowLogic> holds it.
            logic = FlowLogic(pattern=_parse_pattern(ET.Element(
                named.get("value"),
                {prop_name: prop.get("value")
                 for prop_name, prop in properties.items()
                 if prop.get("value") is not None})))
        return Flow(name=name, logic=logic, variables=variables,
                    children=children)
    raise DGLParseError(f"unknown MoML entity class {entity_class!r}")


def moml_to_flow(text: str) -> Flow:
    """Parse a MoML model document into a DGL flow."""
    # Strip the doctype line(s); ElementTree rejects external DTDs.
    body = "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith(("<?xml", "<!DOCTYPE")))
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise DGLParseError(f"malformed MoML: {exc}") from None
    if root.tag != "entity":
        raise DGLParseError(f"expected MoML <entity>, got <{root.tag}>")
    parsed = _build_tree(root, _entity_children, _entity_node)
    if not isinstance(parsed, Flow):
        raise DGLParseError("top-level MoML entity must be a flow composite")
    return parsed
