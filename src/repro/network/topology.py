"""Inter-domain network topology.

Administrative domains in a datagrid are connected by wide-area links of
very different capacities — the CMS exploding-star scenario (§2.1) pushes
data from CERN down a tier hierarchy precisely because tier links differ.
This module models the topology as an undirected graph of
latency/bandwidth links and answers routing and timing questions.

Routing uses lowest-latency shortest paths (Dijkstra). Point-to-point
transfer time uses the path's bottleneck bandwidth plus summed latencies,
which is the standard pipelined-stream approximation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import NetworkError, NoRouteError

__all__ = ["Link", "Topology"]


@dataclass(frozen=True)
class Link:
    """An undirected network link between two domains."""

    a: str
    b: str
    latency_s: float
    bandwidth_bps: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise NetworkError(f"link endpoints must differ, got {self.a!r} twice")
        if self.latency_s < 0:
            raise NetworkError("latency cannot be negative")
        if self.bandwidth_bps <= 0:
            raise NetworkError("bandwidth must be positive")

    @cached_property
    def ends(self) -> frozenset:
        """The unordered end pair, built once per link: the network engine
        keys its per-link index on it for every transfer event."""
        return frozenset((self.a, self.b))

    def other(self, domain: str) -> str:
        """The endpoint that is not ``domain``."""
        if domain == self.a:
            return self.b
        if domain == self.b:
            return self.a
        raise NetworkError(f"{domain!r} is not an endpoint of {self}")


class _Route(NamedTuple):
    """A cached path with the metrics every transfer and cost estimate
    reads, so a cache hit costs no walk over the links."""

    links: Tuple[Link, ...]
    #: Summed latency along the path.
    latency_s: float
    #: Minimum bandwidth along the path (``inf`` for local access).
    bottleneck_bps: float
    #: The links as sorted "a--b" end-pair names, in route order.
    names: Tuple[str, ...]

    @classmethod
    def over(cls, path: List[Link]) -> "_Route":
        return cls(tuple(path),
                   sum(link.latency_s for link in path),
                   min((link.bandwidth_bps for link in path),
                       default=float("inf")),
                   tuple("--".join(sorted(link.ends)) for link in path))


_LOCAL = _Route.over([])


class _RoutesTo(dict):
    """One destination's routes, keyed by source domain.

    A source seen for the first time is routed by :meth:`Topology._fill`,
    which raises for an unknown or unreachable source and caches only a
    route it found.
    """

    __slots__ = ("_topology", "_dst")

    def __init__(self, topology: "Topology", dst: str) -> None:
        super().__init__()
        self._topology = topology
        self._dst = dst
        # The local route is every destination's own entry.
        self[dst] = _LOCAL

    def __missing__(self, src: str) -> _Route:
        route = self._topology._fill(src, self._dst)
        self[src] = route
        return route


class Topology:
    """An undirected graph of domains and links."""

    def __init__(self) -> None:
        self._domains: set = set()
        self._adjacency: Dict[str, List[Link]] = {}
        self._version = 0
        #: dst -> (version when filled, {src: route}). A destination's map
        #: from an older version is stale: the next lookup into that
        #: destination starts a fresh one.
        self._route_cache: Dict[str, Tuple[int, _RoutesTo]] = {}

    @property
    def version(self) -> int:
        """Mutation counter, bumped whenever a link is added or replaced.

        Consumers caching routing decisions (including this class's own
        route cache) compare against it to detect topology changes.
        """
        return self._version

    @property
    def domains(self) -> frozenset:
        """All registered domain names."""
        return frozenset(self._domains)

    @property
    def links(self) -> List[Link]:
        """All links (each once)."""
        seen = set()
        out = []
        for adj in self._adjacency.values():
            for link in adj:
                if link.ends not in seen:
                    seen.add(link.ends)
                    out.append(link)
        return out

    def add_domain(self, name: str) -> None:
        """Register a domain (idempotent)."""
        self._domains.add(name)
        self._adjacency.setdefault(name, [])

    def connect(self, a: str, b: str, latency_s: float,
                bandwidth_bps: float) -> Link:
        """Add (or replace) the link between ``a`` and ``b``."""
        self.add_domain(a)
        self.add_domain(b)
        link = Link(a, b, latency_s, bandwidth_bps)
        for end in (a, b):
            self._adjacency[end] = [
                l for l in self._adjacency[end] if l.ends != link.ends]
            self._adjacency[end].append(link)
        self._version += 1
        return link

    def disconnect(self, a: str, b: str) -> Optional[Link]:
        """Remove the direct link between ``a`` and ``b``, if any.

        Returns the removed link (so an outage can restore it later with
        its original parameters). Routing immediately stops using it:
        subsequent :meth:`route` calls go around — or raise
        :class:`~repro.errors.NoRouteError` if no alternative exists —
        because the version bump invalidates every cached route.
        """
        ends = frozenset((a, b))
        removed: Optional[Link] = None
        for end in (a, b):
            adjacency = self._adjacency.get(end)
            if not adjacency:
                continue
            for link in adjacency:
                if link.ends == ends:
                    removed = link
            self._adjacency[end] = [l for l in adjacency if l.ends != ends]
        if removed is not None:
            self._version += 1
        return removed

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The direct link between ``a`` and ``b``, if one exists."""
        ends = frozenset((a, b))
        for link in self._adjacency.get(a, ()):
            if link.ends == ends:
                return link
        return None

    # -- routing ----------------------------------------------------------

    def route(self, src: str, dst: str) -> List[Link]:
        """Lowest-latency path from ``src`` to ``dst`` as a list of links.

        A same-domain route is the empty list (local access). Routes are
        cached per destination, then per source, and invalidated by the
        topology version, so repeated transfers between the same pair
        skip Dijkstra entirely.
        """
        # A fresh list: callers hold on to (and could mutate) the path.
        return list(self._route(src, dst).links)

    def _route(self, src: str, dst: str) -> _Route:
        """The cached route with its metrics (see :meth:`route`)."""
        # Domains are never removed, so a current entry needs none of
        # the checks in _fill.
        cached = self._route_cache.get(dst)
        if cached is not None and cached[0] == self._version:
            route = cached[1].get(src)
            if route is not None:
                return route
        if src not in self._domains:
            raise NetworkError(f"unknown domain {src!r}")
        return self.routes_to(dst)[src]

    def routes_to(self, dst: str) -> Mapping[str, _Route]:
        """Every route into ``dst``, keyed by source domain.

        The map is the route cache itself, for reading only: it is
        current until the next :meth:`connect` or :meth:`disconnect`, and
        a source missing from it is routed on first lookup. Scoring many
        sources against one destination (replica selection) reads it
        once instead of making a call per source. Raises
        :class:`~repro.errors.NetworkError` for an unknown ``dst``; a
        lookup raises it for an unknown source and
        :class:`~repro.errors.NoRouteError` for an unreachable one.
        """
        cached = self._route_cache.get(dst)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if dst not in self._domains:
            raise NetworkError(f"unknown domain {dst!r}")
        routes = _RoutesTo(self, dst)
        self._route_cache[dst] = (self._version, routes)
        return routes

    def _fill(self, src: str, dst: str) -> _Route:
        """Route a pair missing from ``dst``'s map (``dst`` is known)."""
        if src not in self._domains:
            raise NetworkError(f"unknown domain {src!r}")
        return _Route.over(self._dijkstra(src, dst))

    def _dijkstra(self, src: str, dst: str) -> List[Link]:
        dist: Dict[str, float] = {src: 0.0}
        prev: Dict[str, Tuple[str, Link]] = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        visited = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for link in self._adjacency[node]:
                neighbour = link.other(node)
                nd = d + link.latency_s
                if nd < dist.get(neighbour, float("inf")):
                    dist[neighbour] = nd
                    prev[neighbour] = (node, link)
                    heapq.heappush(heap, (nd, neighbour))
        if dst not in prev:
            raise NoRouteError(f"no route from {src!r} to {dst!r}")
        path: List[Link] = []
        node = dst
        while node != src:
            node, link = prev[node]
            path.append(link)
        path.reverse()
        return path

    def path_latency(self, src: str, dst: str) -> float:
        """Summed latency along the route."""
        return self._route(src, dst).latency_s

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        """Minimum bandwidth along the route (``inf`` for local access)."""
        return self._route(src, dst).bottleneck_bps

    def transfer_time(self, src: str, dst: str, nbytes: float) -> float:
        """Uncontended time to move ``nbytes`` from ``src`` to ``dst``."""
        if nbytes < 0:
            raise NetworkError(f"negative transfer size: {nbytes}")
        route = self._route(src, dst)
        if not route.links:
            return 0.0
        return route.latency_s + nbytes / route.bottleneck_bps

    # -- convenience builders ----------------------------------------------

    @classmethod
    def star(cls, center: str, leaves: List[str], latency_s: float,
             bandwidth_bps: float) -> "Topology":
        """A hub-and-spoke topology (imploding/exploding star scenarios)."""
        topo = cls()
        topo.add_domain(center)
        for leaf in leaves:
            topo.connect(center, leaf, latency_s, bandwidth_bps)
        return topo

    @classmethod
    def full_mesh(cls, domains: List[str], latency_s: float,
                  bandwidth_bps: float) -> "Topology":
        """Every pair of domains directly connected."""
        topo = cls()
        for name in domains:
            topo.add_domain(name)
        for i, a in enumerate(domains):
            for b in domains[i + 1:]:
                topo.connect(a, b, latency_s, bandwidth_bps)
        return topo
