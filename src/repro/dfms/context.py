"""Execution context handed to DGL operation handlers.

A handler sees exactly one object, the :class:`ExecutionContext`: the
simulation clock, the DGMS, the acting user, the step's variable scope, and
the owning execution. Handlers record scope mutations through
:meth:`ExecutionContext.assign` so the engine's journal can replay them
after a restart (see :mod:`repro.dfms.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.dgl.expressions import Scope
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.users import User
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # avoid a runtime import cycle with server.py
    from repro.dfms.execution import FlowExecution
    from repro.dfms.server import DfMSServer


@dataclass
class ExecutionContext:
    """Everything an operation handler may touch."""

    env: Environment
    dgms: DataGridManagementSystem
    user: User
    scope: Scope
    execution: "FlowExecution"
    server: Optional["DfMSServer"] = None
    #: Scope mutations made by the current step, for journal replay.
    effects: List[Tuple[str, Any]] = field(default_factory=list)
    #: The current step's abstract resource requirements (§2.3), consulted
    #: by scheduling-aware operations such as ``exec``.
    requirements: dict = field(default_factory=dict)

    def assign(self, name: str, value: Any) -> None:
        """Bind a DGL variable, recording the effect for checkpoint replay."""
        self.scope.assign(name, value)
        self.effects.append((name, value))

    def log(self, message: str) -> None:
        """Append to the execution's message log (the ``dgl.log`` channel)."""
        execution = self.execution
        if not execution.messages:
            execution.messages = []
        execution.messages.append((self.env.now, str(message)))

    def for_step(self, scope: Scope,
                 requirements: Optional[dict] = None) -> "ExecutionContext":
        """A derived context with a fresh step scope and effect list."""
        return ExecutionContext(env=self.env, dgms=self.dgms, user=self.user,
                                scope=scope, execution=self.execution,
                                server=self.server,
                                requirements=dict(requirements or {}))
