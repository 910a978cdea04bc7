"""Recovery policies: retry, failover, resume, checkpoint/restart.

The counterpart of :mod:`repro.faults.model`: faults make operations fail
with :class:`~repro.errors.Retryable` exceptions, and this module supplies
the policies that turn those failures back into completed work:

* :class:`RetryPolicy` — exponential backoff with bounded, seeded jitter
  (drawn from a dedicated ``recovery/*`` substream so retry timing never
  perturbs any other stochastic component).
* :class:`RecoveryService` — attached to a DGMS via
  :func:`attach_recovery`; gives reads alternate-replica failover and
  gives every WAN leg resume-from-offset semantics
  (:meth:`RecoveryService.run_transfer` restarts an interrupted transfer
  with only the bytes that had not yet arrived).
* :class:`FlowSupervisor` — wraps DfMS submissions in an automatic
  checkpoint/restart loop: when an execution fails with a retryable
  error, its journal is checkpointed, the supervisor backs off, and the
  flow is restored in replay mode so completed steps are skipped.

Dispatch is strictly by exception type (:class:`~repro.errors.Retryable`),
never by message text. With no service attached (``dgms.recovery is
None``) the DGMS takes its original code paths and behaviour is
bit-identical to a build without this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import (
    FaultError,
    NoRouteError,
    Retryable,
    TransferInterrupted,
)
from repro.dgl.model import ExecutionState
from repro.sim.rng import RandomStreams

__all__ = ["RetryPolicy", "RecoveryService", "FlowSupervisor",
           "attach_recovery"]

#: Stream names for the two jitter consumers.
BACKOFF_STREAM = "recovery/backoff"
SUPERVISOR_STREAM = "recovery/supervisor"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded jitter.

    Attempt ``n`` (1-based) sleeps
    ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a jitter
    factor uniform in ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 5
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise FaultError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise FaultError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise FaultError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int,
              rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.max_delay,
                   self.base_delay * self.multiplier ** max(0, attempt - 1))
        if rng is not None and self.jitter > 0.0:
            base *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return base


class RecoveryService:
    """Per-DGMS recovery: transfer resume and failover accounting.

    The DGMS holds one (or ``None``) on its ``recovery`` attribute and
    duck-types into it, which keeps :mod:`repro.grid.dgms` free of any
    import of this package (the supervisor side imports the DfMS, which
    imports the DGMS — a cycle if the DGMS imported us back).
    """

    def __init__(self, env, policy: Optional[RetryPolicy] = None,
                 streams: Optional[RandomStreams] = None) -> None:
        self.env = env
        self.policy = policy if policy is not None else RetryPolicy()
        streams = streams if streams is not None else RandomStreams(0)
        self.rng = streams.stream(BACKOFF_STREAM)
        #: Action counts by kind (retry / resume / failover), for
        #: invariant checkers that run without a telemetry session.
        self.counts: Dict[str, int] = {}

    def count(self, kind: str) -> int:
        """How many actions of ``kind`` have been taken."""
        return self.counts.get(kind, 0)

    @property
    def total_actions(self) -> int:
        return sum(self.counts.values())

    def note(self, kind: str, **fields) -> None:
        """Record one recovery action (and mirror it to telemetry)."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        t = self.env.telemetry
        if t is not None:
            t.recovery_actions.bound[kind].inc()
            t.log.emit(f"recovery.{kind}", **fields)

    def backoff(self, attempt: int, **fields):
        """Generator: jittered exponential sleep before retry ``attempt``."""
        delay = self.policy.delay(attempt, self.rng)
        self.note("retry", attempt=attempt, delay=round(delay, 6), **fields)
        yield self.env.timeout(delay)

    def run_transfer(self, transfers, src: str, dst: str, nbytes: float):
        """Generator: a WAN transfer that survives link churn.

        An interruption carries the byte offset already delivered, so the
        next attempt moves only the remainder; a missing route (the link
        is down and no detour exists) backs off until routing recovers.
        Gives up (re-raising) after ``policy.max_attempts`` failures.
        """
        policy = self.policy
        remaining = float(nbytes)
        attempt = 0
        while True:
            try:
                yield transfers.transfer(src, dst, remaining)
                return
            except TransferInterrupted as exc:
                attempt += 1
                if exc.transferred:
                    remaining = max(0.0, remaining - exc.transferred)
                    self.note("resume", src=src, dst=dst,
                              remaining=round(remaining, 3))
                if attempt >= policy.max_attempts:
                    raise
            except NoRouteError:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
            yield from self.backoff(attempt, operation="transfer",
                                    src=src, dst=dst)


def attach_recovery(dgms, streams: Optional[RandomStreams] = None,
                    policy: Optional[RetryPolicy] = None) -> RecoveryService:
    """Give ``dgms`` failover reads and resumable transfers."""
    service = RecoveryService(dgms.env, policy=policy, streams=streams)
    dgms.recovery = service
    return service


class FlowSupervisor:
    """Automatic checkpoint/restart for DfMS executions.

    Wraps a submission (:meth:`run`) or an already-submitted request
    (:meth:`supervise`): whenever the execution fails with a
    :class:`~repro.errors.Retryable` error, the supervisor checkpoints
    its journal, backs off per the policy, and restores it in replay
    mode — completed steps are skipped, the failed step reruns. Gives up
    after ``policy.max_attempts`` rounds or on a non-retryable failure,
    returning the execution in whatever terminal state it reached.
    """

    def __init__(self, server, streams: Optional[RandomStreams] = None,
                 policy: Optional[RetryPolicy] = None,
                 recovery: Optional[RecoveryService] = None) -> None:
        self.server = server
        self.env = server.env
        self.policy = policy if policy is not None else RetryPolicy()
        streams = streams if streams is not None else RandomStreams(0)
        self.rng = streams.stream(SUPERVISOR_STREAM)
        #: Shared action ledger, when the run also has a DGMS-side
        #: recovery service (chaos invariants count both in one place).
        self.recovery = recovery
        self.restarts = 0

    def _note(self, **fields) -> None:
        self.restarts += 1
        if self.recovery is not None:
            self.recovery.note("restart", **fields)
            return
        t = self.env.telemetry
        if t is not None:
            t.recovery_actions.bound["restart"].inc()
            t.log.emit("recovery.restart", **fields)

    def run(self, request):
        """Generator: submit ``request`` and supervise it to completion.

        Returns the final :class:`~repro.dfms.execution.FlowExecution`.
        Raises :class:`FaultError` if the server rejects the document
        (rejections are not executions; there is nothing to restart).
        """
        response = self.server.submit(request)
        if not response.body.valid:
            raise FaultError(
                f"request rejected, nothing to supervise: "
                f"{response.body.message}")
        execution = yield from self.supervise(response.request_id)
        return execution

    def supervise(self, request_id: str):
        """Generator: watch one request, restarting retryable failures."""
        # Local import: this module is reachable from workload setup code
        # that must not pull the whole DfMS stack until a supervisor is
        # actually used.
        from repro.dfms.checkpoint import (
            checkpoint_execution,
            restore_execution,
        )
        attempt = 0
        while True:
            execution = yield self.server.wait(request_id)
            if execution.state is not ExecutionState.FAILED:
                return execution
            failure = execution.failure
            if not isinstance(failure, Retryable):
                return execution
            attempt += 1
            if attempt >= self.policy.max_attempts:
                return execution
            snapshot = checkpoint_execution(self.server, request_id)
            self._note(request_id=request_id, attempt=attempt,
                       steps_done=len(snapshot["journal"]),
                       error=type(failure).__name__)
            yield self.env.timeout(self.policy.delay(attempt, self.rng))
            restore_execution(self.server, snapshot, replace=True)
