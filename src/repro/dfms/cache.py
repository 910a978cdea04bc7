"""A memoizing cache tier for hot DGMS lookups.

The paper's DfMS server answers DGL requests "on top of the datagrid
server" (§3.2); under heavy traffic the same catalog queries and replica
selections repeat thousands of times between namespace changes, and the
query planner re-plans every one. This module memoizes the two hot
read paths:

* **catalog queries** — :meth:`Query.run` results keyed by the caller
  plus the query's full shape (collection, conjuncts, recursion, limit).
  Results are cached *after* ACL filtering so a hit skips both the
  planner and the per-object permission walk; :meth:`~repro.grid.dgms.
  DataGridManagementSystem.grant` — the DGMS's only ACL mutation path —
  notifies the cache, which drops every query entry (``acl`` cause).
  An entry also memoizes its answer's path list the first time
  :meth:`run_query_paths` asks, so a hit from ``srb.query`` copies one
  list instead of reading every object's path again.
* **replica choices** — :meth:`DataGridManagementSystem.select_replica`
  results keyed by (object guid, destination domain, policy).

Correctness model — sim-time TTL plus precise invalidation:

* Every entry carries ``expires_at`` in **virtual** time and is checked
  lazily on lookup. No kernel events are scheduled, no randomness is
  drawn, and the clock is never advanced, so an attached cache cannot
  move a float: the chaos sweep's :func:`~repro.workloads.chaos.
  run_signature` stays bit-identical (gated by
  ``benchmarks/test_e24_gateway.py``).
* Query entries are evicted through the :class:`~repro.grid.catalog.
  GridCatalog` change feed (``register`` / ``deregister`` / ``metadata``
  / ``resize`` — moves fire deregister+register via subtree adoption),
  scoped to the conjuncts a mutation can actually affect: a metadata
  change on attribute ``a`` only drops entries conditioned on
  ``meta:a``; a resize only drops entries conditioned on ``size`` (and
  the object's replica choices); object arrival/departure drops
  everything. Checksums are written in place without a catalog event,
  so queries conditioned on ``checksum`` are served uncached.
* Replica-choice entries are stamped at fill time with the
  :class:`~repro.network.topology.Topology` version counter and the
  object's (size, good-replica) fingerprint. Fault windows
  (:class:`~repro.faults.model.LinkOutage` /
  :class:`~repro.faults.model.LinkDegradation`) drive the topology
  through ``disconnect``/``connect``, each of which bumps the version —
  so a degraded link evicts every replica choice routed over the old
  numbers on its next lookup. The failover path
  (``select_replica(exclude=...)``) always bypasses the cache.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.grid.acl import Permission, readable
from repro.grid.query import Query

__all__ = ["DgmsCache", "attach_cache"]

#: Query fields mutated without a catalog change event (checksums are
#: assigned in place by ``dgms.checksum``); conditions on them make a
#: query uncacheable.
_UNCACHEABLE_FIELDS = frozenset({"checksum"})

#: Entry lifetime, in sim seconds: every replica choice's, and a query
#: entry's unless the cache is built with another. Generous on purpose:
#: the change feed does the real invalidation work; the TTL only bounds
#: staleness of surfaces the feed cannot see (none known — belt and
#: braces) and the memory held by one-off queries.
DEFAULT_TTL_S = 300.0

_PATH = attrgetter("path")


class _QueryEntry:
    """One cached query answer: post-ACL objects, and their paths once
    someone has asked for them."""

    __slots__ = ("expires_at", "results", "paths")

    def __init__(self, expires_at: float, results: Tuple) -> None:
        self.expires_at = expires_at
        self.results = results
        self.paths: Optional[Tuple[str, ...]] = None


class DgmsCache:
    """Sim-time TTL cache over one DGMS's query and replica lookups.

    Attach with :func:`attach_cache`; the DGMS consults :attr:`~repro.
    grid.dgms.DataGridManagementSystem.cache` duck-typed (``None`` means
    every lookup takes the original code path, keeping the grid package
    import-free of this module).
    """

    def __init__(self, dgms, query_ttl_s: float = DEFAULT_TTL_S,
                 max_entries: int = 4096) -> None:
        self.dgms = dgms
        self.env = dgms.env
        self.query_ttl_s = float(query_ttl_s)
        self.max_entries = int(max_entries)
        # (user, collection, conditions, recursive, limit) -> entry.
        # Insertion-ordered, so capacity eviction drops the oldest fill
        # first.
        self._queries: Dict[Tuple, _QueryEntry] = {}
        # (guid, to_domain, policy) -> (expires_at, stamp, replica).
        self._replicas: Dict[Tuple, Tuple[float, Tuple, object]] = {}
        #: Local tallies (always maintained; telemetry mirrors them when
        #: a session is attached).
        self.hits = {"query": 0, "replica": 0}
        self.misses = {"query": 0, "replica": 0}
        self.bypasses = {"query": 0, "replica": 0}
        self.invalidations: Dict[str, int] = {}
        self.evictions: Dict[str, int] = {}
        self._listening = False

    # -- bookkeeping ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queries) + len(self._replicas)

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable lookups answered from the cache."""
        hits = sum(self.hits.values())
        total = hits + sum(self.misses.values())
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """A plain-dict snapshot for reports and benchmarks."""
        return {
            "hits": dict(self.hits), "misses": dict(self.misses),
            "bypasses": dict(self.bypasses),
            "invalidations": dict(self.invalidations),
            "evictions": dict(self.evictions),
            "hit_rate": self.hit_rate, "entries": len(self),
        }

    def _note(self, surface: str, outcome: str) -> None:
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.cache_requests.bound[surface, outcome].inc()

    def _note_drop(self, cause: str, count: int) -> None:
        if count <= 0:
            return
        self.invalidations[cause] = self.invalidations.get(cause, 0) + count
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.cache_invalidations.bound[cause].inc(count)

    def _evict(self, reason: str, count: int = 1) -> None:
        self.evictions[reason] = self.evictions.get(reason, 0) + count

    # -- catalog queries -----------------------------------------------------

    @staticmethod
    def _query_key(user, query: Query) -> Optional[Tuple]:
        for condition in query.conditions:
            if condition.field in _UNCACHEABLE_FIELDS:
                return None
        return (user.qualified_name, query.collection,
                tuple(query.conditions), query.recursive, query.limit)

    def _run_filtered(self, user, query: Query) -> List:
        return readable(user, query.run(self.dgms.namespace,
                                        self.env.telemetry),
                        Permission.READ)

    def _query_entry(self, user, query: Query) -> Optional[_QueryEntry]:
        """The live entry answering ``query`` for ``user``; None on bypass.

        Counts exactly one hit, miss or bypass. A miss runs the planner
        and the ACL filter and stores the fresh entry.
        """
        key = self._query_key(user, query)
        if key is None:
            self.bypasses["query"] += 1
            self._note("query", "bypass")
            return None
        now = self.env.now
        entry = self._queries.get(key)
        if entry is not None:
            if now < entry.expires_at:
                self.hits["query"] += 1
                self._note("query", "hit")
                return entry
            del self._queries[key]
            self._evict("ttl")
        self.misses["query"] += 1
        self._note("query", "miss")
        entry = _QueryEntry(now + self.query_ttl_s,
                            tuple(self._run_filtered(user, query)))
        if len(self._queries) >= self.max_entries:
            self._queries.pop(next(iter(self._queries)))
            self._evict("capacity")
        self._queries[key] = entry
        return entry

    def run_query(self, user, query: Query) -> List:
        """``dgms.query`` through the cache (per-caller, post-ACL list)."""
        entry = self._query_entry(user, query)
        if entry is None:
            return self._run_filtered(user, query)
        return list(entry.results)

    def run_query_paths(self, user, query: Query) -> List[str]:
        """``dgms.query_paths`` through the cache: the paths of
        :meth:`run_query`'s answer, in order.

        An entry projects its paths at most once; every later hit is one
        list copy. Moves and renames reach the cache as catalog
        deregister/register events, which drop every query entry, so a
        memoized path cannot go stale.
        """
        entry = self._query_entry(user, query)
        if entry is None:
            return list(map(_PATH, self._run_filtered(user, query)))
        paths = entry.paths
        if paths is None:
            paths = entry.paths = tuple(map(_PATH, entry.results))
        return list(paths)

    # -- replica choices -----------------------------------------------------

    def _replica_stamp(self, obj, replicas) -> Tuple:
        """Validity fingerprint for one replica choice.

        The topology version covers every link change (fault windows
        included); the per-object part covers resizes, replica
        arrivals/departures, and state flips (stale after overwrite).
        """
        return (self.dgms.topology.version, obj.size,
                tuple((replica.replica_number, replica.state)
                      for replica in replicas))

    def lookup_replica(self, obj, to_domain: str, policy: str, replicas):
        """The cached choice for this lookup, or None on miss/staleness."""
        key = (obj.guid, to_domain, policy)
        entry = self._replicas.get(key)
        if entry is None:
            self.misses["replica"] += 1
            self._note("replica", "miss")
            return None
        expires_at, stamp, choice = entry
        now = self.env.now
        if now >= expires_at:
            del self._replicas[key]
            self._evict("ttl")
        elif stamp != self._replica_stamp(obj, replicas):
            del self._replicas[key]
            self._evict("stale")
        else:
            self.hits["replica"] += 1
            self._note("replica", "hit")
            return choice
        self.misses["replica"] += 1
        self._note("replica", "miss")
        return None

    def store_replica(self, obj, to_domain: str, policy: str, replicas,
                      choice) -> None:
        """Remember ``choice`` for this lookup, stamped for validity."""
        if len(self._replicas) >= self.max_entries:
            self._replicas.pop(next(iter(self._replicas)))
            self._evict("capacity")
        self._replicas[(obj.guid, to_domain, policy)] = (
            self.env.now + DEFAULT_TTL_S,
            self._replica_stamp(obj, replicas), choice)

    # -- invalidation --------------------------------------------------------

    def _on_catalog_change(self, kind: str, obj, attribute) -> None:
        """The :attr:`GridCatalog.listeners` subscriber (precise evictions)."""
        queries = self._queries
        if kind == "metadata":
            field = "meta:" + attribute
            stale = [key for key in queries
                     if any(c.field == field for c in key[2])]
        elif kind == "resize":
            stale = [key for key in queries
                     if any(c.field == "size" for c in key[2])]
            self._drop_replicas_for(obj.guid, "resize")
        else:
            # register/deregister: membership (and, via moves, every
            # path) may have changed — nothing keyed on content survives.
            stale = list(queries)
            if kind == "deregister":
                self._drop_replicas_for(obj.guid, kind)
        for key in stale:
            del queries[key]
        self._note_drop(kind, len(stale))

    def on_acl_change(self, path: str) -> None:
        """``dgms.grant`` hook: visibility may have shifted for any caller.

        ACL grants are rare next to queries, and a permission change on a
        collection alters what *recursive* queries elsewhere see — so no
        scoping is attempted; every query entry goes.
        """
        dropped = len(self._queries)
        self._queries.clear()
        self._note_drop("acl", dropped)

    def _drop_replicas_for(self, guid: str, cause: str) -> None:
        stale = [key for key in self._replicas if key[0] == guid]
        for key in stale:
            del self._replicas[key]
        self._note_drop(f"replica-{cause}", len(stale))

    def invalidate_all(self) -> None:
        """Drop every entry (manual escape hatch)."""
        dropped = len(self)
        self._queries.clear()
        self._replicas.clear()
        self._note_drop("manual", dropped)

    # -- attach/detach -------------------------------------------------------

    def attach(self) -> "DgmsCache":
        """Wire this cache into its DGMS (idempotent)."""
        if not self._listening:
            self.dgms.namespace.catalog.listeners.append(
                self._on_catalog_change)
            self._listening = True
        self.dgms.cache = self
        return self

    def detach(self) -> None:
        """Unwire from the DGMS; pending entries are dropped."""
        if self._listening:
            try:
                self.dgms.namespace.catalog.listeners.remove(
                    self._on_catalog_change)
            except ValueError:
                pass
            self._listening = False
        if self.dgms.cache is self:
            self.dgms.cache = None
        self.invalidate_all()


def attach_cache(dgms) -> DgmsCache:
    """Attach a default :class:`DgmsCache` to ``dgms``, or return the one
    already attached, mirroring the recovery/observability attach
    surfaces."""
    existing = dgms.cache
    return existing if existing is not None else DgmsCache(dgms).attach()
