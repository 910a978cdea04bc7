"""Reference (per-transfer heap) network engine — test and benchmark
baseline only.

This is a frozen copy of ``repro.network.transfer`` as it stood before
route classes landed: every re-rating recomputes each candidate's rate on
its own and pushes one heap entry per transfer, and ``incremental=False``
selects the global model that re-rates every active transfer on every
event. It also predates re-resolving links that change during a
transfer's latency phase.

``benchmarks/test_e20_network.py`` and ``tests/test_network_transfer.py``
drive identical schedules through this module and the live engine to
(a) assert the same completions, in the same order, at the same instants
and (b) record the baselines the E20 speedup gate is measured against.
Nothing under ``src/`` may import this module.

The frozen module's own description follows.

The scheduler's cost model cares about "the bandwidth utilized" (§2.3), and
the exploding-star experiment needs tier links to saturate when many
replicas push at once. This module runs transfers as a fluid-flow model on
the simulation kernel:

* each active transfer gets, on every link it crosses, an equal share of
  that link's bandwidth;
* the transfer's instantaneous rate is the minimum share along its path;
* rates are recomputed whenever a transfer starts or finishes.

Equal-share-then-bottleneck slightly underuses links compared to true
max-min fairness, but it is deterministic, monotone (more contention never
speeds anyone up), and reproduces the contention shapes the experiments
need.

The engine is *incremental*: a per-link index of active transfers means a
start or finish only re-rates the transfers that share a link with it —
under equal sharing a transfer's rate depends solely on the occupancy of
its own links, so the contention component of an event collapses to the
direct link-sharers, and disjoint traffic is untouched. A transfer is
settled (its progress advanced to "now") only when its rate actually
changes; between rate changes it drains linearly and needs no bookkeeping.
Projected finish times live in a lazily-invalidated min-heap that drives a
single persistent, reschedulable kernel timer — no throwaway wake
processes. The superseded global model survives as
:meth:`TransferService._recompute_rates_full` (``incremental=False``) and
is exercised by the equivalence tests and ``benchmarks/test_e20_network.py``;
because both modes settle under the identical "only on rate change" rule,
their per-transfer completion times are bit-identical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NetworkError, TransferInterrupted
from repro.network.topology import Link, Topology
from repro.sim.kernel import Environment, Event, Timeout
from repro.telemetry.tracing import TRANSFER

__all__ = ["TransferService", "TransferStats"]

#: Bytes below which a transfer is considered finished (float tolerance).
_EPSILON_BYTES = 1e-6


@dataclass
class TransferStats:
    """Outcome of one completed transfer."""

    src: str
    dst: str
    nbytes: float
    start_time: float
    end_time: float
    #: Links crossed; 0 means a same-domain (local) access.
    hops: int = 0
    #: The links crossed, as sorted "a--b" end-pair names in route order —
    #: the per-link identity SLO latency probes and ``net.transfer`` log
    #: records aggregate on. Empty for local accesses.
    route: Tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def effective_bandwidth_bps(self) -> float:
        if self.duration <= 0:
            return float("inf")
        return self.nbytes / self.duration


class _ActiveTransfer:
    """Book-keeping for one streaming transfer (identity-hashed)."""

    __slots__ = ("stats", "links", "remaining", "rate", "done", "span",
                 "version")

    def __init__(self, stats: TransferStats, links: List[Link],
                 done: Event, span: object = None) -> None:
        self.stats = stats
        self.links = links
        self.remaining = stats.nbytes
        self.rate = 0.0
        self.done = done
        #: Open telemetry span as (tracer, span id), or None when no
        #: session was attached at the start.
        self.span = span
        #: Bumped whenever the projected finish changes (or the transfer
        #: leaves the active set); heap entries carrying an older version
        #: are stale and dropped lazily.
        self.version = 0


class TransferService:
    """Runs point-to-point transfers with per-link fair sharing.

    ``incremental=False`` selects the reference engine: every event
    re-rates *all* active transfers via :meth:`_recompute_rates_full`
    (O(active × links) per event) instead of just the affected set. Both
    modes produce bit-identical completion times; the flag exists for
    equivalence testing and benchmarking.
    """

    def __init__(self, env: Environment, topology: Topology,
                 incremental: bool = True) -> None:
        self.env = env
        self.topology = topology
        self.incremental = incremental
        # Dict-as-ordered-set: O(1) membership/removal, deterministic
        # iteration (kernel determinism forbids id-ordered sets).
        self._active: Dict[_ActiveTransfer, None] = {}
        #: Per-link index: link ends -> {transfer: the Link it crosses
        #: there}. len() of an entry is that link's occupancy; entries are
        #: removed when the last transfer leaves, so iterating the index
        #: visits only busy links.
        self._by_link: Dict[frozenset, Dict[_ActiveTransfer, Link]] = {}
        #: Min-heap of (projected finish, seq, transfer version, transfer);
        #: stale entries (version mismatch) are dropped when they surface.
        self._finish_heap: list = []
        self._heap_seq = 0
        #: The single persistent wake timer, rescheduled in place as the
        #: earliest projected finish moves.
        self._timer: Optional[Timeout] = None
        self.total_bytes_moved = 0.0
        self.completed: List[TransferStats] = []
        #: Link ends currently in a fault-injected outage. Maintained by a
        #: :class:`~repro.faults.model.FaultDriver`; empty (and checked
        #: with one falsy test) when no fault schedule is attached.
        self.down_links: set = set()
        self.interrupted_count = 0
        # Utilization gauge children by link ends (avoids re-resolving
        # label children on every rate recomputation).
        self._link_gauges: Dict[frozenset, object] = {}
        self._collector_registered = False

    # -- public API ---------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Start a transfer; the returned event succeeds with its stats."""
        if nbytes < 0:
            raise NetworkError(f"negative transfer size: {nbytes}")
        done = self.env.event()
        links = self.topology.route(src, dst)
        stats = TransferStats(src=src, dst=dst, nbytes=nbytes,
                              start_time=self.env.now, end_time=self.env.now,
                              hops=len(links),
                              route=tuple("--".join(sorted(link.ends))
                                          for link in links))
        t = self.env.telemetry
        if t is None:
            span = None
        else:
            if not self._collector_registered:
                # Gauges only ever expose their latest value, so recording
                # on every recomputation would be pure overhead: register a
                # collect-time reader instead (runs once per export).
                self._collector_registered = True
                t.collectors.append(lambda: self._record_link_utilization(t))
            # The calling process's span context (typically an engine
            # step's span, via Process._tspan) parents the span, nesting
            # flow -> step -> transfer.
            active = self.env._active_process
            span = (t.tracer, t.tracer.begin(
                TRANSFER, None if active is None else active._tspan,
                (src, dst, nbytes, len(links))))
        if not links or nbytes == 0:
            # Local (same-domain) or empty transfer: instantaneous.
            self._finish(stats, done, span)
            return done
        latency = sum(link.latency_s for link in links)
        self.env.process(
            self._admit_after_latency(latency, stats, links, done, span))
        return done

    @property
    def active_count(self) -> int:
        """Number of transfers currently streaming."""
        return len(self._active)

    def link_utilization(self, link: Link) -> float:
        """Fraction of ``link``'s bandwidth in use right now.

        O(transfers on the link) via the per-link index, not O(all active
        transfers).
        """
        state = self._by_link.get(link.ends)
        if not state:
            return 0.0
        used = sum(t.rate for t, crossed in state.items() if crossed == link)
        return used / link.bandwidth_bps

    # -- internals ----------------------------------------------------------

    def _admit_after_latency(self, latency, stats, links, done, span=None):
        yield self.env.timeout(latency)
        if self.down_links:
            # A link on the path went down while this transfer was still
            # in its latency phase: it never streamed a byte.
            for link in links:
                if link.ends in self.down_links:
                    self._interrupt(
                        _ActiveTransfer(stats, links, done, span), link)
                    return
        transfer = _ActiveTransfer(stats, links, done, span)
        # end_time doubles as "last settled" during streaming; start the
        # clock at admission, not at the original call instant.
        stats.end_time = self.env.now
        self._active[transfer] = None
        touched = {}
        for link in links:
            self._by_link.setdefault(link.ends, {})[transfer] = link
            touched[link.ends] = None
        if self.incremental:
            self._recompute_rates_affected(touched)
        else:
            self._recompute_rates_full()
        self._arm_timer()

    def _finish(self, stats: TransferStats, done: Event,
                span=None) -> None:
        stats.end_time = self.env.now
        if stats.hops:
            # Only traffic that actually crossed a link is WAN movement;
            # same-domain accesses are free (data virtualization's point).
            self.total_bytes_moved += stats.nbytes
        self.completed.append(stats)
        if span is not None:
            tracer, span_id = span
            tracer.finish(span_id)
        done.succeed(stats)

    def _interrupt(self, transfer: _ActiveTransfer, link: Link) -> None:
        """Fail a (settled, already-removed) transfer's done event with a
        resumable :class:`TransferInterrupted` carrying its byte offset."""
        stats = transfer.stats
        transferred = max(0.0, stats.nbytes - transfer.remaining)
        self.interrupted_count += 1
        if transferred and stats.hops:
            # The bytes that made it across count as WAN movement; the
            # resumed remainder accounts for the rest on completion.
            self.total_bytes_moved += transferred
        if transfer.span is not None:
            tracer, span_id = transfer.span
            tracer.finish(span_id, status="interrupted")
        t = self.env.telemetry
        if t is not None:
            t.log.emit("net.interrupted", src=stats.src, dst=stats.dst,
                       link="--".join(sorted(link.ends)),
                       nbytes=stats.nbytes, transferred=transferred)
        transfer.done.fail(TransferInterrupted(
            f"link {link.a}--{link.b} dropped with "
            f"{stats.nbytes - transferred:.0f} B left of "
            f"{stats.src}->{stats.dst}",
            src=stats.src, dst=stats.dst, nbytes=stats.nbytes,
            transferred=transferred))

    def fail_link(self, a: str, b: str) -> int:
        """Interrupt every in-flight transfer crossing the ``a``–``b`` link.

        Each victim's done event fails with :class:`TransferInterrupted`
        carrying the bytes already moved, so callers can resume from that
        offset. Survivors sharing other links with a victim are re-rated
        (they just gained bandwidth). Returns the number of interruptions.
        """
        ends = frozenset((a, b))
        state = self._by_link.get(ends)
        if not state:
            return 0
        now = self.env.now
        victims = list(state)
        touched: Dict[frozenset, None] = {}
        for transfer in victims:
            elapsed = now - transfer.stats.end_time
            if elapsed:
                transfer.remaining -= transfer.rate * elapsed
                transfer.stats.end_time = now
            self._remove(transfer)
            for link in transfer.links:
                if link.ends != ends:
                    touched[link.ends] = None
        failed_link = next(l for t in victims for l in t.links
                           if l.ends == ends)
        for transfer in victims:
            self._interrupt(transfer, failed_link)
        if self.incremental:
            self._recompute_rates_affected(touched)
        else:
            self._recompute_rates_full()
        self._arm_timer()
        return len(victims)

    def replace_link(self, new_link: Link) -> int:
        """Swap the link object in-flight transfers cross at ``new_link``'s
        ends (a bandwidth degradation or restoration) and re-rate them.

        The topology owns routing; this keeps the *streaming* state
        consistent when a link's parameters change mid-transfer. Returns
        the number of transfers re-pointed.
        """
        ends = new_link.ends
        state = self._by_link.get(ends)
        if not state:
            return 0
        for transfer in state:
            transfer.links = [new_link if link.ends == ends else link
                              for link in transfer.links]
            state[transfer] = new_link
        if self.incremental:
            self._recompute_rates_affected((ends,))
        else:
            self._recompute_rates_full()
        self._arm_timer()
        return len(state)

    @staticmethod
    def _finish_tolerance(transfer: _ActiveTransfer, now: float) -> float:
        """Residual bytes below which a transfer counts as finished.

        Floating-point addition of a tiny finish delay onto a large virtual
        clock can lose low bits, leaving a residue the next wake can never
        drain (the delay rounds to zero and time stops advancing). The
        tolerance therefore scales with both the transfer size and the
        clock's representable step at the current instant.
        """
        clock_step = max(1e-9, 4 * math.ulp(now))
        return max(_EPSILON_BYTES,
                   1e-9 * transfer.stats.nbytes,
                   transfer.rate * clock_step)

    # -- rate maintenance ---------------------------------------------------

    def _rates_full(self) -> Dict[_ActiveTransfer, float]:
        """Every active transfer's fair-share rate, computed from scratch.

        The ground truth the incremental engine must agree with at all
        times; used directly by the equivalence tests.
        """
        by_link = self._by_link
        return {
            transfer: min(link.bandwidth_bps / len(by_link[link.ends])
                          for link in transfer.links)
            for transfer in self._active
        }

    def _apply_rates(self, candidates: Iterable[_ActiveTransfer]) -> None:
        """Re-rate ``candidates``; settle a transfer only when its rate
        actually changes (progress is linear between rate changes, so
        nothing else needs bookkeeping)."""
        now = self.env.now
        by_link = self._by_link
        for transfer in candidates:
            rate = min(link.bandwidth_bps / len(by_link[link.ends])
                       for link in transfer.links)
            # dgf: noqa[DGF004]: intentional exact identity — the settle-only-on-rate-change rule needs bit-equality so incremental and reference engines settle at identical instants
            if rate == transfer.rate:
                continue
            elapsed = now - transfer.stats.end_time
            if elapsed:
                transfer.remaining -= transfer.rate * elapsed
            transfer.stats.end_time = now
            transfer.rate = rate
            self._push_projection(transfer)

    def _recompute_rates_affected(self, touched: Iterable[frozenset]) -> None:
        """Re-rate only the transfers crossing a touched link.

        Under equal sharing a transfer's rate is min(bandwidth/occupancy)
        over its own links, so occupancy changes on ``touched`` links
        cannot propagate further: the direct link-sharers *are* the whole
        contention component of the event.
        """
        candidates: Dict[_ActiveTransfer, None] = {}
        for ends in touched:
            state = self._by_link.get(ends)
            if state:
                for transfer in state:
                    candidates[transfer] = None
        self._apply_rates(candidates)

    def _recompute_rates_full(self) -> None:
        """Reference model: re-rate every active transfer (global sweep)."""
        self._apply_rates(self._active)

    # -- wake timer ---------------------------------------------------------

    def _push_projection(self, transfer: _ActiveTransfer) -> None:
        transfer.version += 1
        finish = transfer.stats.end_time + transfer.remaining / transfer.rate
        self._heap_seq += 1
        heapq.heappush(self._finish_heap,
                       (finish, self._heap_seq, transfer.version, transfer))

    def _live_head(self):
        """The earliest valid heap entry, dropping stale ones on the way."""
        heap = self._finish_heap
        while heap:
            entry = heap[0]
            if entry[3].version != entry[2]:
                heapq.heappop(heap)
            else:
                return entry
        return None

    def _arm_timer(self) -> None:
        """Point the persistent timer at the earliest projected finish."""
        head = self._live_head()
        timer = self._timer
        pending = (timer is not None and not timer.processed
                   and not timer.cancelled)
        if head is None:
            if pending:
                timer.cancel()
            self._timer = None
            return
        delay = head[0] - self.env.now
        if delay < 0.0:
            delay = 0.0
        if pending:
            # dgf: noqa[DGF004]: intentional exact identity — reschedule is skipped only when the recomputed fire time is the same float bit-for-bit; near-misses must reschedule
            if timer.when == self.env.now + delay:
                return
            timer.reschedule(delay)
            return
        timer = self.env.timeout(delay)
        timer.callbacks.append(self._on_wake)
        self._timer = timer

    def _on_wake(self, event: Event) -> None:
        if event is not self._timer:
            return  # a replaced timer that fired before it could die
        self._timer = None
        now = self.env.now
        # The timer's fire time is recomputed through now-relative deltas,
        # so it can land a few ulps shy of the heap's projection; the slack
        # mirrors the clock step in _finish_tolerance.
        horizon = now + max(1e-9, 4 * math.ulp(now))
        finished = []
        while True:
            head = self._live_head()
            if head is None or head[0] > horizon:
                break
            heapq.heappop(self._finish_heap)
            transfer = head[3]
            elapsed = now - transfer.stats.end_time
            if elapsed:
                transfer.remaining -= transfer.rate * elapsed
                transfer.stats.end_time = now
            if transfer.remaining <= self._finish_tolerance(transfer, now):
                finished.append(transfer)
            else:
                # Projection overshot by more than the tolerance (clock
                # rounding): keep streaming, re-project.
                self._push_projection(transfer)
        if finished:
            touched = {}
            for transfer in finished:
                self._remove(transfer)
                for link in transfer.links:
                    touched[link.ends] = None
                self._finish(transfer.stats, transfer.done, transfer.span)
            if self.incremental:
                self._recompute_rates_affected(touched)
            else:
                self._recompute_rates_full()
        self._arm_timer()

    def _remove(self, transfer: _ActiveTransfer) -> None:
        del self._active[transfer]
        transfer.version += 1  # invalidate any heap projections
        for link in transfer.links:
            state = self._by_link[link.ends]
            del state[transfer]
            if not state:
                del self._by_link[link.ends]

    # -- telemetry ----------------------------------------------------------

    def _record_link_utilization(self, telemetry) -> None:
        """Gauge the in-use fraction of every link busy right now.

        Runs at export time (a telemetry collector, not the transfer hot
        path), reading the per-link index so only busy links are visited.
        Links that went idle are reset to 0 so the export reflects the
        current instant, not the last busy one.
        """
        gauges = self._link_gauges
        busy = self._by_link
        for ends, state in busy.items():
            used = 0.0
            capacity = 1.0
            for transfer, link in state.items():
                used += transfer.rate
                capacity = link.bandwidth_bps
            series = gauges.get(ends)
            if series is None:
                series = telemetry.net_link_utilization.labels(
                    link="--".join(sorted(ends)))
                gauges[ends] = series
            series.set(used / capacity)
        for ends, series in gauges.items():
            if ends not in busy and series.value != 0.0:
                series.set(0.0)
