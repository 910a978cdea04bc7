"""An admission-controlled front end for the DfMS server.

The paper's DfMS answers DGL requests for "millions of users" (§1) but
our :class:`~repro.dfms.server.DfMSServer` is a thin dispatcher: every
submit starts a flow immediately, so offered load translates directly
into concurrent executions and there is no backpressure anywhere. This
module adds the production-shaped tier in front of it, mirroring how the
EU DataGrid services structure data management as load-managed request
streams:

* a **bounded request queue** drained by a fixed pool of kernel worker
  processes — ``workers`` is the server's concurrency bound, so backlog
  forms when offered load exceeds service rate instead of melting the
  engine;
* **token-bucket admission per virtual organization** — each VO refills
  at its provisioned rate (lazily, in sim time); a request that finds
  no token is shed immediately with an explicit
  :class:`~repro.dgl.model.RequestRejection` carrying ``retry_after_s``.
  Status queries are charged a fractional cost so a polling-heavy VO
  cannot starve its own submissions;
* **weighted-fair dequeue** (deficit round robin) across the VO lanes —
  a VO with weight 2 drains twice as fast as a weight-1 VO under
  contention, and an idle lane accumulates no credit;
* explicit **shed responses under overload** — a full queue rejects with
  ``queue-full`` rather than growing without bound.

Flow responses keep the server's protocol shape: the async path answers
with a ``PENDING`` :class:`~repro.dgl.model.RequestAcknowledgement`
carrying the (pre-allocated) real request id; :meth:`submit_sync` waits
for the queued flow to finish and returns the final status response.
Status queries for a still-queued id are answered by the gateway itself.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.dgl.model import (
    DataGridRequest,
    DataGridResponse,
    ExecutionState,
    FlowStatusQuery,
    RequestAcknowledgement,
    RequestRejection,
)
from repro.dfms.execution import FlowExecution
from repro.dfms.server import DfMSServer
from repro.ids import IdFactory
from repro.sim.kernel import Environment, Event

__all__ = ["DfMSGateway", "TokenBucket", "VOPolicy"]

#: Fraction of a flow-submission token a status query costs.
STATUS_QUERY_COST = 0.25


class TokenBucket:
    """A lazily-refilled token bucket in sim time.

    ``rate`` tokens arrive per sim second up to ``burst``; the balance is
    brought forward on every :meth:`take` from the elapsed sim time, so
    no kernel events are scheduled for refills.
    """

    def __init__(self, env: Environment, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket needs positive rate and burst")
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._refilled_at = env.now

    def _refill(self) -> None:
        now = self.env.now
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._refilled_at = now

    def take(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; False means throttled."""
        self._refill()
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def eta(self, cost: float = 1.0) -> float:
        """Sim seconds until ``cost`` tokens will have accrued."""
        self._refill()
        deficit = cost - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class VOPolicy:
    """Admission provisioning for one virtual organization."""

    __slots__ = ("rate", "burst", "weight")

    def __init__(self, rate: float = 10.0, burst: float = 20.0,
                 weight: float = 1.0) -> None:
        if weight < 1.0:
            raise ValueError("DRR weights must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.weight = float(weight)


class _Entry:
    """One queued (or running) gateway request.

    When it is done, ``execution`` holds the flow's execution, or
    ``refusal`` the server's invalid-document answer.
    """

    __slots__ = ("request", "vo", "enqueued_at", "started_at", "done",
                 "execution", "refusal")

    def __init__(self, request: DataGridRequest, vo: str,
                 enqueued_at: float, done: Event) -> None:
        self.request = request
        self.vo = vo
        self.enqueued_at = enqueued_at
        self.started_at: Optional[float] = None
        self.done = done
        self.execution: Optional[FlowExecution] = None
        self.refusal: Optional[DataGridResponse] = None


class DfMSGateway:
    """Bounded-queue, token-bucket, weighted-fair DfMS front end."""

    def __init__(self, env: Environment, server: DfMSServer,
                 name: Optional[str] = None,
                 queue_limit: int = 64, workers: int = 4,
                 default_policy: Optional[VOPolicy] = None,
                 vo_policies: Optional[Dict[str, VOPolicy]] = None,
                 status_query_cost: float = STATUS_QUERY_COST) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if workers < 1:
            raise ValueError("the gateway needs at least one worker")
        self.env = env
        self.server = server
        self.name = name if name is not None else f"{server.name}-gw"
        self.queue_limit = int(queue_limit)
        self.workers = int(workers)
        self.default_policy = default_policy or VOPolicy()
        self.vo_policies: Dict[str, VOPolicy] = dict(vo_policies or {})
        self.status_query_cost = float(status_query_cost)
        self.ids = IdFactory()
        self._buckets: Dict[str, TokenBucket] = {}
        # DRR state: per-VO FIFO lanes of request ids + a rotation of
        # the VOs that currently have queued work.
        self._lanes: Dict[str, Deque[str]] = {}
        self._active: Deque[str] = deque()
        self._deficit: Dict[str, float] = {}
        self._depth = 0
        #: High-water mark of the queue depth (saturation evidence).
        self.peak_depth = 0
        # Every admitted, not-yet-finished request (queued or running).
        self._entries: Dict[str, _Entry] = {}
        self._park: Optional[Event] = None
        #: Counters for reports; telemetry mirrors them when attached.
        self.admitted = 0
        self.completed = 0
        self.succeeded = 0
        self.coalesced = 0
        self.sheds: Dict[str, int] = {}
        # Same-instant status-answer memo: monitoring fan-outs poll the
        # same (request_id, granularity) at the same virtual instant;
        # the first answer is reused, later duplicates never reach the
        # server. Cleared the moment the clock moves.
        self._status_memo: Dict[tuple, DataGridResponse] = {}
        self._status_memo_at = -1.0
        #: Queue-wait per dequeued request, and submit→finish sojourn per
        #: finished flow (sim seconds) — the benchmark's raw material.
        self.queue_waits: List[float] = []
        self.sojourns: List[float] = []
        for _ in range(self.workers):
            env.process(self._worker())

    # -- policy and bookkeeping ----------------------------------------------

    def policy_for(self, vo: str) -> VOPolicy:
        """The admission policy covering ``vo``."""
        return self.vo_policies.get(vo, self.default_policy)

    def _bucket(self, vo: str) -> TokenBucket:
        bucket = self._buckets.get(vo)
        if bucket is None:
            policy = self.policy_for(vo)
            bucket = TokenBucket(self.env, policy.rate, policy.burst)
            self._buckets[vo] = bucket
        return bucket

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dequeued by a worker."""
        return self._depth

    def queued(self, request_id: str) -> bool:
        """True while ``request_id`` sits in the gateway queue."""
        entry = self._entries.get(request_id)
        return entry is not None and entry.started_at is None

    def stats(self) -> Dict[str, object]:
        """A plain-dict snapshot for reports and benchmarks."""
        return {
            "admitted": self.admitted, "completed": self.completed,
            "succeeded": self.succeeded, "shed": dict(self.sheds),
            "queue_depth": self._depth, "peak_depth": self.peak_depth,
            "coalesced": self.coalesced,
        }

    def _set_depth_gauge(self) -> None:
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.gateway_queue_depth.bound[self.name].set(self._depth)

    def _note_shed(self, reason: str) -> None:
        self.sheds[reason] = self.sheds.get(reason, 0) + 1
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.gateway_shed.bound[self.name, reason].inc()

    def _note_admitted(self) -> None:
        self.admitted += 1
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.gateway_admitted.bound[self.name].inc()

    # -- status-poll coalescing ----------------------------------------------

    def _status_answer(self, request: DataGridRequest) -> DataGridResponse:
        """Answer a not-queued status query, coalescing duplicates.

        Monitoring fan-outs (dashboards, per-step pollers) issue the
        same ``(request_id, path, max_depth)`` query many times at the
        same virtual instant; only the first reaches the server — later
        duplicates get the identical answer back (status is a pure read,
        so within one instant the answers are interchangeable). Each
        query is still charged its token cost before landing here:
        coalescing saves server work, not admission budget.
        """
        if self.env.now != self._status_memo_at:  # dgf: noqa[DGF004]: intentional exact identity — the memo is valid only while the clock has not moved at all; any advance, however small, must invalidate it
            self._status_memo.clear()
            self._status_memo_at = self.env.now
        key = (request.body.request_id, request.body.path,
               request.body.max_depth)
        cached = self._status_memo.get(key)
        if cached is not None:
            self._note_coalesced()
            return cached
        response = self._query_server(request)
        self._status_memo[key] = response
        return response

    def _query_server(self, request: DataGridRequest) -> DataGridResponse:
        """The one seam status queries cross to the server (tests count
        calls here to prove coalescing)."""
        return self.server.submit(request)

    def _note_coalesced(self) -> None:
        self.coalesced += 1
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.gateway_coalesced.bound[self.name].inc()

    # -- admission ------------------------------------------------------------

    def _shed(self, reason: str, message: str,
              retry_after_s: Optional[float] = None) -> DataGridResponse:
        self._note_shed(reason)
        request_id = self.ids.next(f"{self.name}.shed")
        return DataGridResponse(
            request_id=request_id,
            body=RequestRejection(request_id=request_id, reason=reason,
                                  message=message,
                                  retry_after_s=retry_after_s))

    def submit(self, request: DataGridRequest) -> DataGridResponse:
        """Handle one request; always returns immediately.

        Flow requests are admitted (token bucket, then queue bound) and
        answered with a ``PENDING`` acknowledgement carrying the real
        request id, or shed with a :class:`RequestRejection`. Status
        queries are charged fractionally, answered here while the target
        is still queued, and forwarded to the server otherwise.
        """
        vo = request.virtual_organization
        bucket = self._bucket(vo)
        if isinstance(request.body, FlowStatusQuery):
            if not bucket.take(self.status_query_cost):
                return self._shed(
                    "throttled",
                    f"virtual organization {vo!r} is over its query rate",
                    retry_after_s=bucket.eta(self.status_query_cost))
            if self.queued(request.body.request_id):
                return DataGridResponse(
                    request_id=request.body.request_id,
                    body=RequestAcknowledgement(
                        request_id=request.body.request_id,
                        state=ExecutionState.PENDING, valid=True,
                        message=f"queued at {self.name}"))
            return self._status_answer(request)
        if not bucket.take(1.0):
            return self._shed(
                "throttled",
                f"virtual organization {vo!r} is over its submit rate",
                retry_after_s=bucket.eta(1.0))
        if self._depth >= self.queue_limit:
            return self._shed(
                "queue-full",
                f"{self.name} queue is at its bound of {self.queue_limit}")
        request_id = self.server.allocate_request_id()
        entry = _Entry(request, vo, self.env.now, self.env.event())
        self._entries[request_id] = entry
        lane = self._lanes.get(vo)
        if lane is None:
            lane = self._lanes[vo] = deque()
        if vo not in self._deficit:
            self._deficit[vo] = 0.0
            self._active.append(vo)
        lane.append(request_id)
        self._depth += 1
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth
        self._note_admitted()
        self._set_depth_gauge()
        self._wake()
        return DataGridResponse(
            request_id=request_id,
            body=RequestAcknowledgement(
                request_id=request_id, state=ExecutionState.PENDING,
                valid=True, message=f"queued by {self.name}"))

    def submit_sync(self, request: DataGridRequest):
        """Generator (sim process body): submit and wait for completion.

        Sheds, status queries, and invalid documents return immediately,
        exactly like :meth:`submit`; an admitted flow waits out both the
        queue and the execution.
        """
        response = self.submit(request)
        if (response.is_rejection
                or isinstance(request.body, FlowStatusQuery)
                or not response.body.valid):
            return response
            yield   # pragma: no cover - makes this function a generator
        entry = self._entries[response.request_id]
        yield entry.done
        if entry.execution is None:
            return entry.refusal
        # Only a synchronous caller reads the final status, so only it
        # pays for a detached copy of the tree.
        return DataGridResponse(request_id=response.request_id,
                                body=entry.execution.status.snapshot())

    # -- weighted-fair dequeue -----------------------------------------------

    def _dequeue(self) -> Optional[str]:
        """Next request id under deficit round robin, if any.

        The head VO is topped up by its weight once per visit and keeps
        the head while its credit lasts, so a weight-``w`` VO drains
        ``w`` requests per round under contention. A lane that empties
        drops its deficit entirely — idle VOs bank no credit.
        """
        while self._active:
            vo = self._active[0]
            lane = self._lanes.get(vo)
            if not lane:
                self._active.popleft()
                self._deficit.pop(vo, None)
                continue
            if self._deficit[vo] < 1.0:
                # A fresh visit in this round: credit the VO's weight.
                # Weights are >= 1, so the head can always serve.
                self._deficit[vo] += self.policy_for(vo).weight
            self._deficit[vo] -= 1.0
            request_id = lane.popleft()
            if not lane:
                self._active.popleft()
                self._deficit.pop(vo, None)
                del self._lanes[vo]
            elif self._deficit[vo] < 1.0:
                self._active.rotate(-1)
            self._depth -= 1
            self._set_depth_gauge()
            return request_id
        return None

    # -- workers ---------------------------------------------------------------

    def _parked(self) -> Event:
        if self._park is None:
            self._park = self.env.event()
        return self._park

    def _wake(self) -> None:
        if self._park is not None:
            park, self._park = self._park, None
            park.succeed()

    def _worker(self):
        """One drain loop: dequeue → start flow → wait it out → repeat."""
        while True:
            request_id = self._dequeue()
            if request_id is None:
                yield self._parked()
                continue
            entry = self._entries[request_id]
            entry.started_at = self.env.now
            wait = entry.started_at - entry.enqueued_at
            self.queue_waits.append(wait)
            telemetry = self.env.telemetry
            if telemetry is not None:
                add_time, add_value = (
                    telemetry.gateway_queue_wait.bound[self.name].appends)
                add_time(entry.started_at)
                add_value(wait)
            response = self.server.start_flow(entry.request, request_id)
            if response.body.valid:
                execution = entry.execution = self.server.execution(
                    request_id)
                if not execution.state.is_terminal:
                    yield execution.done
            else:
                entry.refusal = response
            self._finish(request_id, entry)

    def _finish(self, request_id: str, entry: _Entry) -> None:
        self.completed += 1
        if (entry.execution is not None
                and entry.execution.state is ExecutionState.COMPLETED):
            self.succeeded += 1
        self.sojourns.append(self.env.now - entry.enqueued_at)
        del self._entries[request_id]
        entry.done.succeed()
