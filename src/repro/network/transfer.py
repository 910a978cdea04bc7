"""Contention-aware data transfers over the simulated network.

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

Transfers whose links are equal by value form a *route class*. Every
member of a class crosses the same links, so it always has the same rate:
a class is rated once per event, and it keeps a single entry in the
projected-finish min-heap — that of its member with the least
``(finish, seq)``, where ``seq`` numbers projections in the order they are
made. The heap drives one persistent, reschedulable kernel timer; on
wake, popping a class head and pushing the class's next head before the
next pop is a k-way merge that visits transfers in exactly the
``(finish, seq)`` order of a per-transfer heap, ties included.
"""

from __future__ import annotations

import heapq
import math
import weakref
from array import array
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import NetworkError, TransferInterrupted
from repro.network.topology import Link, Topology
from repro.sim.journal import TRANSFER_KIND, RowView
from repro.sim.kernel import Environment, Event, Timeout
from repro.telemetry.tracing import TRANSFER

__all__ = ["TransferService", "TransferStats"]

#: Bytes below which a transfer is considered finished (float tolerance).
_EPSILON_BYTES = 1e-6

_PROJECTION = attrgetter("finish", "seq")


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

    __slots__ = ("stats", "links", "remaining", "rate", "done", "tracer",
                 "span", "route_class", "finish", "seq")

    def __init__(self, stats: TransferStats, links: Tuple[Link, ...],
                 done: Event, tracer=None, span=None) -> None:
        self.stats = stats
        self.links = links
        self.remaining = stats.nbytes
        self.rate = 0.0
        self.done = done
        #: The open telemetry span's id and the tracer that minted it
        #: (both None when no session was attached at the start): the
        #: span closes there, whatever session is attached by then.
        self.tracer = tracer
        self.span = span
        self.route_class: Optional[_RouteClass] = None
        #: Projected finish and the projection's sequence number; the
        #: pair orders completions, the sequence number breaking ties.
        self.finish = math.inf
        self.seq = 0


class _RouteClass:
    """The active transfers whose links are equal by value."""

    __slots__ = ("key", "members", "head", "entry", "epoch", "ends", "rate")

    def __init__(self, key: Tuple[Link, ...]) -> None:
        self.key = key
        #: Dict-as-ordered-set of member transfers.
        self.members: Dict[_ActiveTransfer, None] = {}
        #: The member with the least (finish, seq).
        self.head: Optional[_ActiveTransfer] = None
        #: The class's one live heap entry (None while it has none); any
        #: other entry naming the class is stale.
        self.entry: Optional[tuple] = None
        #: Scratch for one re-rating: the pass that last visited the
        #: class, the touched link it was first reached through, and the
        #: rate it was given.
        self.epoch = 0
        self.ends: Optional[frozenset] = None
        self.rate = 0.0


class TransferService:
    """Runs point-to-point transfers with per-link fair sharing."""

    def __init__(self, env: Environment, topology: Topology) -> None:
        self.env = env
        self.topology = topology
        # Dict-as-ordered-set: O(1) membership/removal, deterministic
        # iteration (kernel determinism forbids id-ordered sets).
        self._active: Dict[_ActiveTransfer, None] = {}
        #: Per-link index: link ends -> {transfer: the Link it crosses
        #: there}. len() of an entry is that link's occupancy; entries are
        #: removed when the last transfer leaves, so iterating the index
        #: visits only busy links.
        self._by_link: Dict[frozenset, Dict[_ActiveTransfer, Link]] = {}
        #: Route classes by their links (compared by value).
        self._classes: Dict[Tuple[Link, ...], _RouteClass] = {}
        #: Min-heap of (head's finish, head's seq, push number, class);
        #: stale entries (not the class's live one) are dropped when they
        #: surface. The push number keeps two entries from ever tying.
        self._finish_heap: list = []
        self._heap_seq = 0
        self._pushes = 0
        self._epoch = 0
        #: The single persistent wake timer, rescheduled in place as the
        #: earliest projected finish moves.
        self._timer: Optional[Timeout] = None
        self.total_bytes_moved = 0.0
        self.journal = env.journal
        #: Journal rows of this service's finished transfers, in
        #: completion order.
        self._rows = array("q")
        #: Position -> weak reference to the stats object the transfer's
        #: event carried, while anyone still holds it (dropped as it
        #: dies), so :attr:`completed` hands back that same object.
        self._held: Dict[int, weakref.ref] = {}
        #: Every finished transfer, in completion order: a read-only view
        #: that builds :class:`TransferStats` from the journal rows on
        #: each read (``len`` builds nothing).
        self.completed: Sequence[TransferStats] = RowView(self._stats,
                                                         self._rows)
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
        route = self.topology._route(src, dst)
        links = route.links
        stats = TransferStats(src=src, dst=dst, nbytes=nbytes,
                              start_time=self.env.now, end_time=self.env.now,
                              hops=len(links), route=route.names)
        t = self.env.telemetry
        if t is None:
            tracer = span = None
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
            tracer = t.tracer
            span = tracer.begin(
                TRANSFER, None if active is None else active._tspan,
                (src, dst, nbytes, len(links)))
        if not links or nbytes == 0:
            # Local (same-domain) or empty transfer: instantaneous.
            self._finish(stats, done, tracer, span)
            return done
        self.env.process(self._admit_after_latency(
            route.latency_s, stats, links, done, tracer, span,
            self.topology.version))
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

    def _admit_after_latency(self, latency, stats, links, done, tracer,
                             span, version):
        yield self.env.timeout(latency)
        if self.down_links:
            # A link on the path went down while this transfer was still
            # in its latency phase: it never streamed a byte.
            for link in links:
                if link.ends in self.down_links:
                    self._interrupt(_ActiveTransfer(
                        stats, links, done, tracer, span), link)
                    return
        topology = self.topology
        if topology.version != version:
            # A link may have been replaced (degraded or restored) during
            # the latency phase; stream over the links as they are now.
            links = tuple(topology.link_between(link.a, link.b) or link
                          for link in links)
        transfer = _ActiveTransfer(stats, links, done, tracer, span)
        # end_time doubles as "last settled" during streaming; start the
        # clock at admission, not at the original call instant.
        stats.end_time = self.env.now
        self._active[transfer] = None
        self._join(transfer)
        touched = {}
        for link in links:
            self._by_link.setdefault(link.ends, {})[transfer] = link
            touched[link.ends] = None
        self._rerate(touched)
        self._arm_timer()

    def _finish(self, stats: TransferStats, done: Event, tracer=None,
                span: Optional[int] = None) -> None:
        now = stats.end_time = self.env._now
        if stats.hops:
            # Only traffic that actually crossed a link is WAN movement;
            # same-domain accesses are free (data virtualization's point).
            self.total_bytes_moved += stats.nbytes
        if span is not None:
            tracer.finish(span)
        # One journal row: the completed view reads it, and so does the
        # attached telemetry session's fold (counters, duration samples
        # and the log record are derived from it at export time).
        rows = self._rows
        held = self._held
        held[len(rows)] = weakref.ref(stats, partial(held.pop, len(rows)))
        rows.append(self.journal.add(
            TRANSFER_KIND, self, stats.src, stats.dst, stats.start_time, now,
            self.env.telemetry, stats.route, stats.nbytes))
        done.succeed(stats)

    def _stats(self, position: int) -> TransferStats:
        """The stats of finished transfer ``position``: the object its
        event carried while that lives, else one rebuilt from its row."""
        held = self._held.get(position)
        stats = None if held is None else held()
        if stats is None:
            journal = self.journal
            row = self._rows[position]
            route = journal.signatures[row][3]
            stats = TransferStats(
                src=journal.subjects[row], dst=journal.keys[row],
                nbytes=journal.details[row], start_time=journal.starts[row],
                end_time=journal.ends[row], hops=len(route), route=route)
        return stats

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
            transfer.tracer.finish(transfer.span, status="interrupted")
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
        self._rerate(touched)
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
            self._leave(transfer)
            transfer.links = tuple(new_link if link.ends == ends else link
                                   for link in transfer.links)
            self._join(transfer)
            state[transfer] = new_link
        self._rerate((ends,))
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

    # -- route classes ------------------------------------------------------

    def _join(self, transfer: _ActiveTransfer) -> None:
        """Add ``transfer`` to the class of its links, creating it."""
        key = transfer.links
        route_class = self._classes.get(key)
        if route_class is None:
            route_class = self._classes[key] = _RouteClass(key)
        route_class.members[transfer] = None
        transfer.route_class = route_class

    def _leave(self, transfer: _ActiveTransfer) -> None:
        """Take ``transfer`` out of its class; an emptied class is dropped
        and its heap entry invalidated."""
        route_class = transfer.route_class
        members = route_class.members
        members.pop(transfer, None)
        if not members and self._classes.get(route_class.key) is route_class:
            del self._classes[route_class.key]
            route_class.entry = None

    # -- rate maintenance ---------------------------------------------------

    def _rerate(self, touched: Iterable[frozenset]) -> None:
        """Re-rate the transfers crossing a touched link.

        Under equal sharing a transfer's rate is min(bandwidth/occupancy)
        over its own links, so occupancy changes on ``touched`` links
        cannot propagate further: the direct link-sharers *are* the whole
        contention component of the event. Candidates are visited in
        touched-link order, then per-link index order; each class is rated
        once, on its first member, and is reached in full through that
        member's link. A member is settled only when its rate actually
        changes (progress is linear between rate changes), and each settle
        consumes one ``seq``.
        """
        now = self.env.now
        by_link = self._by_link
        self._epoch += 1
        epoch = self._epoch
        seq = self._heap_seq
        rated = []
        for ends in touched:
            state = by_link.get(ends)
            if not state:
                continue
            for transfer in state:
                route_class = transfer.route_class
                if route_class.epoch != epoch:
                    route_class.epoch = epoch
                    route_class.ends = ends
                    route_class.rate = min(
                        link.bandwidth_bps / len(by_link[link.ends])
                        for link in route_class.key)
                    route_class.head = None
                    rated.append(route_class)
                elif route_class.ends is not ends:
                    continue  # already visited through an earlier link
                rate = route_class.rate
                # dgf: noqa[DGF004]: intentional exact identity — the settle-only-on-rate-change rule needs bit-equality so the engine settles at the frozen reference's instants
                if rate != transfer.rate:
                    stats = transfer.stats
                    elapsed = now - stats.end_time
                    if elapsed:
                        transfer.remaining -= transfer.rate * elapsed
                    stats.end_time = now
                    transfer.rate = rate
                    seq += 1
                    transfer.seq = seq
                    transfer.finish = now + transfer.remaining / rate
                head = route_class.head
                if head is None or transfer.finish < head.finish:
                    route_class.head = transfer
                # dgf: noqa[DGF004]: intentional exact identity — equal projected finishes are a tie, broken by seq exactly as a per-transfer heap orders them
                elif transfer.finish == head.finish and transfer.seq < head.seq:
                    route_class.head = transfer
        self._heap_seq = seq
        for route_class in rated:
            entry = route_class.entry
            if entry is None or entry[1] != route_class.head.seq:
                self._push_head(route_class)

    # -- wake timer ---------------------------------------------------------

    def _push_head(self, route_class: _RouteClass) -> None:
        """Make ``route_class.head`` the class's one live heap entry."""
        head = route_class.head
        self._pushes += 1
        entry = route_class.entry = (
            head.finish, head.seq, self._pushes, route_class)
        heapq.heappush(self._finish_heap, entry)

    def _live_head(self):
        """The earliest valid heap entry, dropping stale ones on the way."""
        heap = self._finish_heap
        while heap:
            entry = heap[0]
            if entry[3].entry is not entry:
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
            entry = self._live_head()
            if entry is None or entry[0] > horizon:
                break
            heapq.heappop(self._finish_heap)
            route_class = entry[3]
            route_class.entry = None
            transfer = route_class.head
            elapsed = now - transfer.stats.end_time
            if elapsed:
                transfer.remaining -= transfer.rate * elapsed
                transfer.stats.end_time = now
            members = route_class.members
            if transfer.remaining <= self._finish_tolerance(transfer, now):
                finished.append(transfer)
                del members[transfer]
            else:
                # Projection overshot by more than the tolerance (clock
                # rounding): keep streaming, re-project.
                self._heap_seq += 1
                transfer.seq = self._heap_seq
                transfer.finish = (transfer.stats.end_time
                                   + transfer.remaining / transfer.rate)
            if members:
                # The class's next head joins the merge before the next pop.
                route_class.head = min(members, key=_PROJECTION)
                self._push_head(route_class)
        if finished:
            touched = {}
            for transfer in finished:
                self._remove(transfer)
                for link in transfer.links:
                    touched[link.ends] = None
                self._finish(transfer.stats, transfer.done, transfer.tracer,
                             transfer.span)
            self._rerate(touched)
        self._arm_timer()

    def _remove(self, transfer: _ActiveTransfer) -> None:
        del self._active[transfer]
        self._leave(transfer)
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
