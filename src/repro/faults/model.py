"""Declarative, seeded fault schedules for datagrid simulations.

Long-run processes on datagrids must survive component faults — the paper
makes start/stop/restart a first-class requirement precisely because "a
process that runs for months *will* see failures" (§2.1). This module
supplies the failure side of that story: a :class:`FaultSchedule` is a
declarative list of :class:`FaultEvent` records — storage outages, whole
failure-domain outages, link drops, bandwidth degradations, flaky-window
injections — and a :class:`FaultDriver` arms them as kernel timeouts so
every fault begins and ends at an exact virtual-time instant.

Determinism rules:

* A schedule is plain data; arming it schedules each begin/end through
  the simulation kernel, so two runs of the same schedule produce
  bit-identical fault timing.
* Randomized schedules (:meth:`FaultSchedule.random`) draw from one named
  substream (``fault-schedule``) of the run's
  :class:`~repro.sim.rng.RandomStreams`; flaky windows install injectors
  drawing from the per-resource ``storage-failures/<name>`` substreams.
  Neither consumes from any other component's stream.
* With no schedule attached, nothing in the simulation changes: the
  driver is the only writer of :attr:`TransferService.down_links` and of
  resource ``online`` flags.

Overlap semantics: outages are reference-counted (a link or resource held
down by two overlapping events comes back only when both end) and
degradations compose multiplicatively. Flaky windows stack; overlapping
windows restore injectors in pop order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.sim.rng import RandomStreams
from repro.storage.failures import FailureInjector

__all__ = [
    "FaultEvent",
    "StorageOutage",
    "DomainOutage",
    "LinkOutage",
    "LinkDegradation",
    "FlakyWindow",
    "ZoneOutage",
    "BridgeDegradation",
    "FaultSchedule",
    "ScheduleDriver",
    "FaultDriver",
    "attach_faults",
]

#: Stream name :meth:`FaultSchedule.random` draws from.
SCHEDULE_STREAM = "fault-schedule"

#: Event kinds :meth:`FaultSchedule.random` picks between. Domain outages
#: are never drawn: they take down every resource and link of a failure
#: domain at once, which small chaos topologies may not survive, so a
#: schedule that wants one lists it explicitly.
RANDOM_KINDS = ("storage-outage", "link-outage", "link-degradation",
                "flaky-window")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a kind-specific condition open for a window."""

    start: float
    duration: float

    kind: ClassVar[str] = "fault"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise FaultError(f"fault start cannot be negative: {self.start}")
        if self.duration <= 0:
            raise FaultError(
                f"fault duration must be positive: {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def target(self) -> str:
        """Human-readable identifier of what the fault hits."""
        return "?"


@dataclass(frozen=True)
class StorageOutage(FaultEvent):
    """A physical storage resource rejects all operations for the window."""

    resource: str = ""

    kind: ClassVar[str] = "storage-outage"

    @property
    def target(self) -> str:
        return self.resource


@dataclass(frozen=True)
class DomainOutage(FaultEvent):
    """A whole failure domain goes dark: every physical resource homed
    there goes offline and every link touching it drops."""

    domain: str = ""

    kind: ClassVar[str] = "domain-outage"

    @property
    def target(self) -> str:
        return self.domain


@dataclass(frozen=True)
class LinkOutage(FaultEvent):
    """The direct link between two domains drops; in-flight transfers are
    interrupted with their byte offset and routing goes around (or fails
    with ``NoRouteError``)."""

    a: str = ""
    b: str = ""

    kind: ClassVar[str] = "link-outage"

    @property
    def ends(self) -> FrozenSet[str]:
        return frozenset((self.a, self.b))

    @property
    def target(self) -> str:
        return "--".join(sorted((self.a, self.b)))


@dataclass(frozen=True)
class LinkDegradation(FaultEvent):
    """The link's bandwidth is scaled by ``factor`` for the window.

    Overlapping degradations of the same link compose multiplicatively.
    """

    a: str = ""
    b: str = ""
    factor: float = 0.5

    kind: ClassVar[str] = "link-degradation"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.factor < 1.0:
            raise FaultError(
                f"degradation factor must be in (0, 1), got {self.factor}")

    @property
    def ends(self) -> FrozenSet[str]:
        return frozenset((self.a, self.b))

    @property
    def target(self) -> str:
        return "--".join(sorted((self.a, self.b)))


@dataclass(frozen=True)
class FlakyWindow(FaultEvent):
    """A storage resource fails each operation with ``probability`` for
    the window, drawing from its own ``storage-failures/<name>`` stream."""

    resource: str = ""
    probability: float = 0.1

    kind: ClassVar[str] = "flaky-window"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise FaultError(
                f"flaky probability must be in (0, 1], got {self.probability}")

    @property
    def target(self) -> str:
        return self.resource


@dataclass(frozen=True)
class ZoneOutage(FaultEvent):
    """A whole federated zone goes dark for the window: every physical
    resource in the zone goes offline and every intra-zone link drops.

    Zone events target a :class:`~repro.grid.federation.Federation`, not a
    single datagrid — arm them with a
    :class:`~repro.federation.chaos.FederationFaultDriver` (a plain
    :class:`FaultDriver` rejects them at arm time)."""

    zone: str = ""

    kind: ClassVar[str] = "zone-outage"

    @property
    def target(self) -> str:
        return self.zone


@dataclass(frozen=True)
class BridgeDegradation(FaultEvent):
    """The inter-zone bridge between two zones loses bandwidth: its
    effective rate is scaled by ``factor`` for the window. Overlapping
    degradations of the same bridge compose multiplicatively.

    Like :class:`ZoneOutage`, this targets a federation and needs a
    :class:`~repro.federation.chaos.FederationFaultDriver`."""

    zone_a: str = ""
    zone_b: str = ""
    factor: float = 0.5

    kind: ClassVar[str] = "bridge-degradation"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.factor < 1.0:
            raise FaultError(
                f"degradation factor must be in (0, 1), got {self.factor}")

    @property
    def ends(self) -> FrozenSet[str]:
        return frozenset((self.zone_a, self.zone_b))

    @property
    def target(self) -> str:
        return "~~".join(sorted((self.zone_a, self.zone_b)))


#: Event kinds that target a federation rather than one datagrid.
ZONE_EVENT_TYPES = (ZoneOutage, BridgeDegradation)


class FaultSchedule:
    """An ordered list of fault events (plain data; arming is separate)."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        for event in events:
            if not isinstance(event, FaultEvent):
                raise FaultError(
                    f"not a fault event: {event!r}")
        self.events: Tuple[FaultEvent, ...] = tuple(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def horizon(self) -> float:
        """Instant the last fault window closes (0.0 when empty)."""
        return max((event.end for event in self.events), default=0.0)

    @classmethod
    def random(cls, streams: RandomStreams, dgms, horizon: float,
               n_events: int = 6) -> "FaultSchedule":
        """A seeded random schedule against ``dgms``'s current layout.

        Draws exclusively from the ``fault-schedule`` substream, so the
        same seed always yields the same schedule and generating one never
        perturbs any other stochastic component of the run. Starts land in
        the first three quarters of ``horizon``; each window lasts 5–20 %
        of it.
        """
        if horizon <= 0:
            raise FaultError(f"horizon must be positive: {horizon}")
        if n_events < 0:
            raise FaultError(f"n_events cannot be negative: {n_events}")
        rng = streams.stream(SCHEDULE_STREAM)
        resources = dgms.resources.physical_names()
        links = dgms.topology.links
        events: List[FaultEvent] = []
        for _ in range(n_events):
            kind = rng.choice(RANDOM_KINDS)
            start = rng.uniform(0.0, 0.75 * horizon)
            duration = rng.uniform(0.05 * horizon, 0.2 * horizon)
            if kind == "storage-outage":
                events.append(StorageOutage(start, duration,
                                            rng.choice(resources)))
            elif kind == "link-outage":
                link = rng.choice(links)
                events.append(LinkOutage(start, duration, link.a, link.b))
            elif kind == "link-degradation":
                link = rng.choice(links)
                events.append(LinkDegradation(
                    start, duration, link.a, link.b,
                    round(rng.uniform(0.1, 0.6), 3)))
            else:
                events.append(FlakyWindow(
                    start, duration, rng.choice(resources),
                    round(rng.uniform(0.05, 0.35), 3)))
        return cls(events)


class ScheduleDriver:
    """Arms a fault schedule through kernel timeouts and accounts for it.

    Each event gets a begin timer and an end timer. Subclasses check the
    schedule's targets in ``_resolve_targets`` at arm time and apply a
    transition in ``_begin``/``_end``, which end by calling
    :meth:`_note`: it counts the transition, logs it, and emits a
    telemetry record, so every fault is visible to invariant checkers as
    a begin/end pair.
    """

    def __init__(self, env, schedule: FaultSchedule) -> None:
        self.env = env
        self.schedule = schedule
        self.begun = 0
        self.ended = 0
        #: (time, phase, kind, target) per transition, for assertions that
        #: run without a telemetry session.
        self.log: List[Tuple[float, str, str, str]] = []
        self._armed = False

    @property
    def open_faults(self) -> int:
        """Fault windows currently open (begin seen, end not yet)."""
        return self.begun - self.ended

    def arm(self) -> "ScheduleDriver":
        """Validate the schedule against its target and schedule every
        begin/end as a kernel timeout. One-shot."""
        if self._armed:
            raise FaultError(f"{type(self).__name__} is already armed")
        self._armed = True
        self._resolve_targets()
        now = self.env.now
        for event in self.schedule:
            begin = self.env.timeout(max(0.0, event.start - now))
            begin.callbacks.append(lambda _e, ev=event: self._begin(ev))
            end = self.env.timeout(max(0.0, event.end - now))
            end.callbacks.append(lambda _e, ev=event: self._end(ev))
        return self

    def _note(self, phase: str, event: FaultEvent) -> None:
        if phase == "begin":
            self.begun += 1
        else:
            self.ended += 1
        self.log.append((self.env.now, phase, event.kind, event.target))
        t = self.env.telemetry
        if t is not None:
            t.fault_events.bound[event.kind, phase].inc()
            # start/duration give SLO probes and causal traces the full
            # window geometry from either transition record alone.
            t.log.emit(f"fault.{phase}", fault=event.kind,
                       target=event.target, start=event.start,
                       duration=event.duration)


class FaultDriver(ScheduleDriver):
    """Applies a schedule to one datagrid.

    The transitions mutate the grid: resource ``online`` flags, topology
    links, and the transfer service's outage set.
    """

    def __init__(self, dgms, schedule: FaultSchedule,
                 streams: Optional[RandomStreams] = None) -> None:
        super().__init__(dgms.env, schedule)
        self.dgms = dgms
        self._streams = streams if streams is not None else RandomStreams(0)
        # Pristine Link per ends, captured before any mutation.
        self._base: Dict[FrozenSet[str], object] = {}
        # Refcounts: how many open events hold this link / resource down.
        self._link_down: Dict[FrozenSet[str], int] = {}
        self._resource_down: Dict[str, int] = {}
        # Active degradation factors per link (composed multiplicatively).
        self._degraded: Dict[FrozenSet[str], List[float]] = {}
        # Injectors displaced by open flaky windows, restored in pop order.
        self._flaky_saved: Dict[str, List[object]] = {}
        # Per-domain-outage (resource names, link ends), resolved at arm.
        self._domain_members: Dict[DomainOutage,
                                   Tuple[List[str],
                                         List[FrozenSet[str]]]] = {}

    # -- composable hold/release (for higher-level drivers) ------------------
    #
    # Zone-scoped chaos (repro.federation.chaos) reuses this driver's
    # refcounted mechanics without a schedule of its own: a zone outage is
    # "hold every resource and link of the zone, then release them". The
    # holds share the refcounts with any armed schedule, so overlapping
    # zone and intra-zone faults still come back exactly once.

    def hold_storage(self, name: str) -> None:
        """Take the physical resource ``name`` offline (refcounted)."""
        self.dgms.resources.physical(name)   # raises on unknown names
        self._storage_begin(name)

    def release_storage(self, name: str) -> None:
        """Drop one hold on ``name``; it comes back online at zero holds."""
        self._storage_end(name)

    def hold_link(self, a: str, b: str) -> None:
        """Drop the direct link ``a--b`` (refcounted); in-flight transfers
        are interrupted exactly as for a scheduled :class:`LinkOutage`."""
        ends = frozenset((a, b))
        if ends not in self._base:
            link = self.dgms.topology.link_between(a, b)
            if link is None:
                raise FaultError(
                    f"no link {'--'.join(sorted((a, b)))} to fault")
            self._base[ends] = link
        self._link_down_begin(ends)

    def release_link(self, a: str, b: str) -> None:
        """Drop one hold on ``a--b``; it reconnects at zero holds (with
        any still-open degradations composed back in)."""
        self._link_down_end(frozenset((a, b)))

    # -- arming-time resolution ---------------------------------------------

    def _resolve_targets(self) -> None:
        topology = self.dgms.topology
        for event in self.schedule:
            if isinstance(event, ZONE_EVENT_TYPES):
                raise FaultError(
                    f"{event.kind} targets a federation, not one datagrid; "
                    "arm it with a FederationFaultDriver")
            if isinstance(event, (LinkOutage, LinkDegradation)):
                link = topology.link_between(event.a, event.b)
                if link is None:
                    raise FaultError(
                        f"no link {event.target} to fault")
                self._base.setdefault(link.ends, link)
            elif isinstance(event, (StorageOutage, FlakyWindow)):
                # Raises LogicalResourceError on unknown names.
                self.dgms.resources.physical(event.resource)
            elif isinstance(event, DomainOutage):
                if event.domain not in topology.domains:
                    raise FaultError(f"unknown domain {event.domain!r}")
                ends_list = []
                for link in topology.links:
                    if event.domain in link.ends:
                        self._base.setdefault(link.ends, link)
                        ends_list.append(link.ends)
                names = sorted(
                    self.dgms.domains.get(event.domain).resource_names)
                self._domain_members[event] = (names, ends_list)

    # -- transitions ---------------------------------------------------------

    def _begin(self, event: FaultEvent) -> None:
        if isinstance(event, StorageOutage):
            self._storage_begin(event.resource)
        elif isinstance(event, FlakyWindow):
            self._flaky_begin(event.resource, event.probability)
        elif isinstance(event, LinkOutage):
            self._link_down_begin(event.ends)
        elif isinstance(event, LinkDegradation):
            self._degrade_begin(event.ends, event.factor)
        elif isinstance(event, DomainOutage):
            names, ends_list = self._domain_members[event]
            for name in names:
                self._storage_begin(name)
            for ends in ends_list:
                self._link_down_begin(ends)
        self._note("begin", event)

    def _end(self, event: FaultEvent) -> None:
        if isinstance(event, StorageOutage):
            self._storage_end(event.resource)
        elif isinstance(event, FlakyWindow):
            self._flaky_end(event.resource)
        elif isinstance(event, LinkOutage):
            self._link_down_end(event.ends)
        elif isinstance(event, LinkDegradation):
            self._degrade_end(event.ends, event.factor)
        elif isinstance(event, DomainOutage):
            names, ends_list = self._domain_members[event]
            for name in names:
                self._storage_end(name)
            for ends in ends_list:
                self._link_down_end(ends)
        self._note("end", event)

    # -- storage -------------------------------------------------------------

    def _physical(self, name: str):
        return self.dgms.resources.physical(name).physical

    def _storage_begin(self, name: str) -> None:
        count = self._resource_down.get(name, 0)
        self._resource_down[name] = count + 1
        if count == 0:
            self._physical(name).online = False

    def _storage_end(self, name: str) -> None:
        count = self._resource_down[name] - 1
        if count:
            self._resource_down[name] = count
            return
        del self._resource_down[name]
        self._physical(name).online = True

    def _flaky_begin(self, name: str, probability: float) -> None:
        physical = self._physical(name)
        self._flaky_saved.setdefault(name, []).append(physical.failures)
        physical.failures = FailureInjector.for_resource(
            self._streams, name, probability)

    def _flaky_end(self, name: str) -> None:
        self._physical(name).failures = self._flaky_saved[name].pop()

    # -- links ---------------------------------------------------------------

    def _link_down_begin(self, ends: FrozenSet[str]) -> None:
        count = self._link_down.get(ends, 0)
        self._link_down[ends] = count + 1
        if count:
            return
        base = self._base[ends]
        self.dgms.topology.disconnect(base.a, base.b)
        transfers = self.dgms.transfers
        transfers.down_links.add(ends)
        transfers.fail_link(base.a, base.b)

    def _link_down_end(self, ends: FrozenSet[str]) -> None:
        count = self._link_down[ends] - 1
        if count:
            self._link_down[ends] = count
            return
        del self._link_down[ends]
        self.dgms.transfers.down_links.discard(ends)
        self._reconnect(ends)

    def _degrade_begin(self, ends: FrozenSet[str], factor: float) -> None:
        self._degraded.setdefault(ends, []).append(factor)
        if ends not in self._link_down:
            self._reconnect(ends)

    def _degrade_end(self, ends: FrozenSet[str], factor: float) -> None:
        factors = self._degraded[ends]
        factors.remove(factor)
        if not factors:
            del self._degraded[ends]
        if ends not in self._link_down:
            self._reconnect(ends)

    def _reconnect(self, ends: FrozenSet[str]) -> None:
        """(Re)install the link at ``ends`` with the composition of its
        pristine parameters and every still-open degradation, and re-point
        any in-flight transfers at the new link object."""
        base = self._base[ends]
        bandwidth = base.bandwidth_bps
        for factor in self._degraded.get(ends, ()):
            bandwidth *= factor
        link = self.dgms.topology.connect(base.a, base.b,
                                          base.latency_s, bandwidth)
        self.dgms.transfers.replace_link(link)


def attach_faults(dgms, schedule: FaultSchedule,
                  streams: Optional[RandomStreams] = None) -> FaultDriver:
    """Arm ``schedule`` against ``dgms``; returns the armed driver."""
    return FaultDriver(dgms, schedule, streams).arm()
