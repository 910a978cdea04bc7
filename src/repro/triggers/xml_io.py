"""Trigger definition documents.

"In databases, the Structured Query Language (SQL or PL/SQL) can describe
the triggers and the DBMS executes associated actions. A similar language
is required for DGMSs to describe triggers with respect to files, the
metadata that are associated with those files, data collections, data
storage resources, etc." (§2.2)

This module is that DDL: a trigger definition round-trips through an XML
document in the same dialect as DGL —

.. code-block:: xml

    <datagridTrigger name="mirror-masters" owner="curator@sdsc"
                     phase="after" pathPattern="/archive/*"
                     priority="5" maxFirings="100">
      <on kind="insert"/>
      <on kind="metadata"/>
      <condition>meta['class'] == 'master'</condition>
      <flow name="mirror"> ... </flow>        <!-- or <operation .../> -->
    </datagridTrigger>

so administrators can install triggers programmatically, store them, and
audit them — the DfMS side of the paper's "datagrid stored procedures"
analogy applied to ECA rules.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import DGLParseError
from repro.dgl.model import Flow, Operation
from repro.dgl.xml_io import (
    _attr,
    _bool,
    _flow_element,
    _operation_element,
    _parse_flow,
    _parse_operation,
)
from repro.grid.events import EventKind, EventPhase
from repro.grid.users import UserRegistry
from repro.triggers.trigger import DatagridTrigger

__all__ = ["trigger_to_xml", "trigger_from_xml"]


def trigger_to_xml(trigger: DatagridTrigger) -> str:
    """Serialize one trigger definition."""
    root = ET.Element("datagridTrigger", name=trigger.name,
                      owner=trigger.owner.qualified_name,
                      phase=trigger.phase.value,
                      pathPattern=trigger.path_pattern,
                      priority=str(trigger.priority),
                      enabled="true" if trigger.enabled else "false")
    if trigger.max_firings is not None:
        root.set("maxFirings", str(trigger.max_firings))
    for kind in sorted(trigger.kinds, key=lambda k: k.value):
        ET.SubElement(root, "on", kind=kind.value)
    condition = ET.SubElement(root, "condition")
    condition.text = trigger.condition
    if isinstance(trigger.action, Flow):
        root.append(_flow_element(trigger.action))
    else:
        root.append(_operation_element(trigger.action))
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def trigger_from_xml(text: str, users: UserRegistry) -> DatagridTrigger:
    """Parse a trigger definition, resolving the owner against ``users``."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DGLParseError(f"malformed trigger XML: {exc}") from None
    if root.tag != "datagridTrigger":
        raise DGLParseError(f"expected <datagridTrigger>, got <{root.tag}>")
    kinds = frozenset(_attr(on, "kind", EventKind)
                      for on in root.findall("on"))
    condition_el = root.find("condition")
    condition = (condition_el.text or "true") if condition_el is not None \
        else "true"
    flow_el = root.find("flow")
    operation_el = root.find("operation")
    if (flow_el is None) == (operation_el is None):
        raise DGLParseError(
            "trigger needs exactly one of <flow> or <operation>")
    action = (_parse_flow(flow_el) if flow_el is not None
              else _parse_operation(operation_el))
    return DatagridTrigger(
        name=_attr(root, "name"),
        owner=users.get(_attr(root, "owner")),
        kinds=kinds,
        action=action,
        phase=_attr(root, "phase", EventPhase, "after"),
        path_pattern=root.get("pathPattern", "*"),
        condition=condition,
        priority=_attr(root, "priority", int, "0"),
        enabled=_attr(root, "enabled", _bool, "true"),
        max_firings=_attr(root, "maxFirings", int, None))
