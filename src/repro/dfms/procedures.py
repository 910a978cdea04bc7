"""Datagrid stored procedures (§2.2).

"The proposed language could also be used to describe constructs in
datagrids similar to stored procedures in databases. This will allow the
datagrid stored procedures to be run from the DGMS itself rather than
executing the procedure outside the DGMS using client side components."

A stored procedure is a named, parameterized DGL flow kept server-side:

* :meth:`ProcedureRegistry.define` stores the flow together with its
  declared parameters (and optional defaults);
* :meth:`ProcedureRegistry.call` binds arguments as DGL variables around
  the stored flow and submits it as an ordinary request — callers send
  only the procedure name and arguments, never the flow body.

Procedures themselves round-trip through DGL XML (the flow body is just a
flow), so they can be installed remotely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.errors import DfMSError
from repro.dgl.model import DataGridRequest, DataGridResponse, Flow, Variable
from repro.dgl.schema import validate_flow
from repro.grid.users import User

if TYPE_CHECKING:  # the server owns a registry; avoid the import cycle
    from repro.dfms.server import DfMSServer

__all__ = ["ProcedureParameter", "StoredProcedure", "ProcedureRegistry"]


@dataclass(frozen=True)
class ProcedureParameter:
    """One declared parameter: a name, optionally with a default."""

    name: str
    default: Union[str, int, float, None] = None
    required: bool = True


@dataclass
class StoredProcedure:
    """A named server-side flow plus its parameter declarations."""

    name: str
    flow: Flow
    parameters: List[ProcedureParameter] = field(default_factory=list)
    owner: Optional[str] = None
    description: Optional[str] = None

    def __post_init__(self) -> None:
        names = [parameter.name for parameter in self.parameters]
        if len(names) != len(set(names)):
            raise DfMSError(
                f"procedure {self.name!r} declares duplicate parameters")
        validate_flow(self.flow)


class ProcedureRegistry:
    """Stored procedures for one DfMS server."""

    def __init__(self, server: "DfMSServer") -> None:
        self.server = server
        self._procedures: Dict[str, StoredProcedure] = {}

    def define(self, procedure: StoredProcedure) -> None:
        """Install a procedure (names are unique per server)."""
        if procedure.name in self._procedures:
            raise DfMSError(
                f"procedure {procedure.name!r} already defined")
        self._procedures[procedure.name] = procedure

    def drop(self, name: str) -> None:
        """Uninstall a procedure (raises if unknown)."""
        if name not in self._procedures:
            raise DfMSError(f"no procedure named {name!r}")
        del self._procedures[name]

    def get(self, name: str) -> StoredProcedure:
        """The procedure called ``name`` (raises if unknown)."""
        try:
            return self._procedures[name]
        except KeyError:
            raise DfMSError(f"no procedure named {name!r}") from None

    def names(self) -> List[str]:
        """Installed procedure names, sorted."""
        return sorted(self._procedures)

    def _bind(self, procedure: StoredProcedure,
              arguments: Dict[str, object]) -> Flow:
        unknown = set(arguments) - {p.name for p in procedure.parameters}
        if unknown:
            raise DfMSError(
                f"procedure {procedure.name!r} has no parameters "
                f"{sorted(unknown)}")
        variables = []
        for parameter in procedure.parameters:
            if parameter.name in arguments:
                value = arguments[parameter.name]
            elif not parameter.required:
                value = parameter.default
            else:
                raise DfMSError(
                    f"procedure {procedure.name!r} requires argument "
                    f"{parameter.name!r}")
            variables.append(Variable(parameter.name, value))
        # The call wrapper: arguments become variables in an enclosing
        # scope. The stored body is an immutable value, validated at
        # definition, so every call shares it.
        return Flow(name=f"call:{procedure.name}", variables=variables,
                    children=[procedure.flow])

    def call(self, user: User, name: str,
             arguments: Optional[Dict[str, object]] = None,
             virtual_organization: str = "procedures",
             asynchronous: bool = True) -> DataGridResponse:
        """Invoke a procedure as ``user``; returns the submit response."""
        procedure = self.get(name)
        flow = self._bind(procedure, dict(arguments or {}))
        return self.server.submit(DataGridRequest(
            user=user.qualified_name,
            virtual_organization=virtual_organization,
            body=flow, asynchronous=asynchronous))
