"""The ILM manager: policies bound to a DfMS server.

Owns the registered policies, provides the two domain-specific DGL
operations their compiled flows use (``ilm.gate``, ``ilm.apply``), and
drives one-shot or recurring policy passes through the DfMS — so every ILM
process is an ordinary datagridflow with start/stop/pause/restart, status
queries, and provenance (§2.1's requirement list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ExpressionError, NamespaceError, PolicyError
from repro.dfms.context import ExecutionContext
from repro.dfms.server import DfMSServer
from repro.dgl.expressions import evaluate_condition
from repro.dgl.model import DataGridRequest
from repro.grid.namespace import DataObject
from repro.grid.users import User
from repro.ilm.policy import ILMPolicy, PlacementRule
from repro.ilm.value import DomainValueModel

__all__ = ["ILMManager", "PassRecord"]


@dataclass
class PassRecord:
    """One completed (or running) policy pass."""

    policy: str
    request_id: str
    started_at: float
    finished_at: Optional[float] = None
    state: Optional[str] = None


class ILMManager:
    """Registers and runs ILM policies on one DfMS server."""

    def __init__(self, server: DfMSServer,
                 value_model: Optional[DomainValueModel] = None) -> None:
        self.server = server
        self.dgms = server.dgms
        self.env = server.env
        self.value_model = value_model or DomainValueModel()
        self._policies: Dict[str, ILMPolicy] = {}
        self.passes: List[PassRecord] = []
        self._recurring_stop: Dict[str, bool] = {}
        #: Observers of ILM progress; each is called as
        #: listener(kind, policy_name, time, detail_dict).
        self.listeners: List[Callable] = []
        server.registry.register("ilm.gate", self._op_gate, replace=True)
        server.registry.register("ilm.apply", self._op_apply, replace=True)

    # -- notifications -------------------------------------------------------

    def _notify(self, kind: str, policy_name: str, **detail) -> None:
        for listener in self.listeners:
            listener(kind, policy_name, self.env.now, detail)
        t = self.env.telemetry
        if t is not None:
            t.log.emit(f"ilm.{kind}", policy=policy_name, **detail)

    # -- policies ------------------------------------------------------------

    def add_policy(self, policy: ILMPolicy) -> None:
        """Register a policy (names are unique)."""
        if policy.name in self._policies:
            raise PolicyError(f"policy {policy.name!r} already registered")
        self._policies[policy.name] = policy

    def policy(self, name: str) -> ILMPolicy:
        """The policy called ``name`` (raises if unknown)."""
        try:
            return self._policies[name]
        except KeyError:
            raise PolicyError(f"no policy named {name!r}") from None

    # -- running passes --------------------------------------------------------

    def run_pass(self, policy_name: str, user: User) -> str:
        """Submit one asynchronous policy pass; returns the request id."""
        policy = self.policy(policy_name)
        response = self.server.submit(DataGridRequest(
            user=user.qualified_name, virtual_organization="ilm",
            body=policy.compile_to_flow(), asynchronous=True))
        if not response.body.valid:
            raise PolicyError(
                f"policy pass rejected: {response.body.message}")
        self.passes.append(PassRecord(policy=policy_name,
                                      request_id=response.request_id,
                                      started_at=self.env.now))
        t = self.env.telemetry
        if t is not None:
            t.ilm_passes.bound[policy_name].inc()
        self._notify("pass_submitted", policy_name,
                     request_id=response.request_id)
        return response.request_id

    def run_pass_sync(self, policy_name: str, user: User, supervisor=None):
        """Generator: run one pass to completion; returns its status.

        With a :class:`~repro.faults.recovery.FlowSupervisor`, a pass
        that fails retryably is checkpoint-restarted (journalled objects
        are skipped on replay) instead of reported failed — ILM passes
        are exactly the months-long processes §2.1 wants restartable.
        """
        request_id = self.run_pass(policy_name, user)
        if supervisor is None:
            yield self.server.wait(request_id)
        else:
            yield from supervisor.supervise(request_id)
        record = next(p for p in self.passes if p.request_id == request_id)
        record.finished_at = self.env.now
        status = self.server.status(request_id)
        record.state = status.state.value
        self._notify("pass_completed", policy_name, request_id=request_id,
                     state=record.state)
        return status

    def start_recurring(self, policy_name: str, user: User,
                        interval: float, max_passes: Optional[int] = None):
        """Run passes forever (or ``max_passes`` times), ``interval`` apart.

        Returns the simulation process; stop early with
        :meth:`stop_recurring`.
        """
        self.policy(policy_name)   # fail fast on unknown names
        self._recurring_stop[policy_name] = False

        def _loop():
            count = 0
            while not self._recurring_stop[policy_name]:
                yield from self.run_pass_sync(policy_name, user)
                count += 1
                if max_passes is not None and count >= max_passes:
                    break
                yield self.env.timeout(interval)

        return self.env.process(_loop())

    def stop_recurring(self, policy_name: str) -> None:
        """Stop a recurring pass loop after its current pass."""
        self._recurring_stop[policy_name] = True

    # -- DGL operations ------------------------------------------------------

    def _op_gate(self, ctx: ExecutionContext, params):
        """Wait until the policy's execution window is open."""
        policy = self.policy(params["policy"])
        if policy.window is None or policy.window.contains(ctx.env.now):
            return None
        delay = policy.window.next_open(ctx.env.now) - ctx.env.now
        yield ctx.env.timeout(delay)
        return delay

    def _op_apply(self, ctx: ExecutionContext, params):
        """Evaluate the policy's rules for one object and act."""
        policy = self.policy(params["policy"])
        path = params["path"]
        t = self.env.telemetry
        # One namespace walk instead of a separate exists + resolve.
        obj = self.dgms.namespace.try_resolve(path)
        if obj is None:
            if t is not None:
                t.ilm_apply.bound[policy.name, "vanished"].inc()
            return "vanished"
        if not isinstance(obj, DataObject):
            raise NamespaceError(f"{path!r} is a collection, not a data object")
        scope = {
            "value": self.value_model.domain_value(obj, policy.domain,
                                                   ctx.env.now),
            "age_days": self.value_model.age_days(obj, ctx.env.now),
            "size": obj.size,
            "replica_count": len(obj.good_replicas()),
            "meta": obj.metadata.as_dict(),
            "last_action": obj.metadata.get(policy.mark_attribute),
        }
        chosen: Optional[PlacementRule] = None
        for rule in policy.rules:
            try:
                if evaluate_condition(rule.condition, scope):
                    chosen = rule
                    break
            except ExpressionError as exc:
                raise PolicyError(
                    f"policy {policy.name!r} rule {rule.name!r}: {exc}"
                ) from None
        if chosen is None:
            if t is not None:
                t.ilm_apply.bound[policy.name, "no-match"].inc()
            return "no-match"
        outcome = yield from self._perform(ctx, obj, policy, chosen)
        if t is not None:
            t.ilm_apply.bound[policy.name, "applied"].inc()
            t.ilm_actions.bound[policy.name, chosen.name, outcome].inc()
        self._notify("applied", policy.name, path=path, rule=chosen.name,
                     outcome=outcome)
        if outcome != "deleted" and self.dgms.namespace.exists(path):
            self.dgms.set_metadata(ctx.user, path, policy.mark_attribute,
                                   chosen.name)
        return f"{chosen.name}:{outcome}"

    def _target_members(self, resource_name: str):
        return {m.name for m in
                self.dgms.resources.logical(resource_name).members}

    def _perform(self, ctx, obj, policy, rule):
        path = obj.path
        if rule.action == "none":
            return "noop"
            yield   # pragma: no cover - generator marker
        if rule.action == "delete":
            yield ctx.dgms.delete(ctx.user, path)
            return "deleted"
        members = self._target_members(rule.target_resource)
        on_target = [r for r in obj.good_replicas()
                     if r.physical_name in members]
        if rule.action == "replicate_to":
            if on_target:
                return "already-placed"
            yield ctx.dgms.replicate(ctx.user, path, rule.target_resource)
            return "replicated"
        if rule.action == "migrate_to":
            sources = [r for r in obj.good_replicas()
                       if r.physical_name not in members]
            if not sources:
                return "already-placed"
            source = min(sources, key=lambda r: r.replica_number)
            yield ctx.dgms.migrate(ctx.user, path, source.physical_name,
                                   rule.target_resource)
            return "migrated"
        if rule.action == "trim_to_target":
            if not on_target:
                return "unsafe-no-target-copy"
            extras = [r for r in obj.good_replicas()
                      if r.physical_name not in members]
            for replica in extras:
                yield ctx.dgms.remove_replica(ctx.user, path,
                                              replica.physical_name)
            return "trimmed" if extras else "already-placed"
        raise PolicyError(f"unhandled action {rule.action!r}")
