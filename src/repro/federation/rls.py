"""Two-tier replica location service (RLS) for federated zones.

This follows the EU DataGrid RLS split ("Next-Generation EU DataGrid
Data Management Services", PAPERS.md): the *authoritative* tier is one
:class:`LocalReplicaCatalog` (LRC) per zone, answering "where does this
zone hold guid X" from the zone's own catalog; the *index* tier is a
sharded :class:`ReplicaLocationIndex` (RLI) holding only **compressed
digests** — one bloom filter per (shard, zone) — so the federation-wide
index stays a small constant factor of the namespace no matter how many
zones publish into it.

A :meth:`ReplicaLocationService.locate` therefore touches exactly one
shard (``crc32(guid) % n_shards``), tests each zone's digest in that
shard, and queries only the LRCs whose digest matched. Every match is
re-verified against the authoritative LRC, which yields the service's
consistency contract, **stale but never wrong**:

* a digest published before a replica appeared can make the service
  *miss* that replica (bounded by the sync period — see
  :mod:`repro.federation.sync`);
* a digest false positive or a since-deleted replica costs one wasted
  LRC query, never a wrong answer — :meth:`locate` returns only
  locations the owning zone vouches for at answer time.

Publication is incremental soft state, as the EDG LRCs update their
index: the service keeps each zone's guids partitioned by shard, kept
current by the LRC's own change feed, so republishing a dirty shard
reads only that shard's members, never the zone's whole catalog.

Per-lookup accounting (shards touched, digests checked, LRC queries,
false positives, digest staleness) is first-class: the E25 benchmark
asserts a 1M-object locate touches only its one shard's digests, and
telemetry mirrors the counters when attached.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import FederationError
from repro.federation.sync import DigestSyncer

__all__ = [
    "BloomDigest",
    "FlatReplicaDirectory",
    "LocalReplicaCatalog",
    "LocateResult",
    "ReplicaLocation",
    "ReplicaLocationIndex",
    "ReplicaLocationService",
    "attach_rls",
    "shard_of",
]

#: Default index shard count (guid-hash partitions of the RLI).
DEFAULT_SHARDS = 64

#: Bits a digest budgets per expected entry (~1–2 % false positives at
#: the 4 probes below).
BITS_PER_ENTRY = 10

#: Hash probes per digest membership test.
_PROBES = 4


def shard_of(guid: str, n_shards: int) -> int:
    """The RLI shard responsible for ``guid`` (stable guid-hash)."""
    return zlib.crc32(guid.encode()) % n_shards


def _mix(h: int) -> int:
    """32-bit avalanche finalizer (murmur3's), applied to the salted
    CRCs the digest probes derive from. CRC32 is affine over GF(2), so
    without this every same-length guid in one shard (fixed
    ``crc32 % n_shards``) would land its probes on the *same* bit
    positions — a 100% false-positive digest. The multiplies are
    carry-propagating, which breaks the affinity."""
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


#: CRC32s of the two probe salts: ``crc32(data, _SALT_A)`` equals
#: ``crc32(b"rls-a:" + data)`` without building the salted bytes.
_SALT_A = zlib.crc32(b"rls-a:")
_SALT_B = zlib.crc32(b"rls-b:")


def _hash_pair(data: bytes) -> Tuple[int, int]:
    """The two :func:`_mix`-finalized, salted CRC32s (``h1``, odd
    ``h2``) from which every digest double-hashes the probe positions of
    the guid encoded as ``data``."""
    return (_mix(zlib.crc32(data, _SALT_A)),
            _mix(zlib.crc32(data, _SALT_B)) | 1)


def _shard_and_pair(guid: str, n_shards: int) -> Tuple[int, int, int]:
    """``guid``'s shard (as :func:`shard_of`) and probe pair (as
    :func:`_hash_pair`) from one encoding: what a locate needs."""
    data = guid.encode()
    return (zlib.crc32(data) % n_shards,) + _hash_pair(data)


#: One shard's members in one zone: its guids as the keys of an
#: insertion-ordered dict (values unused), so a rebuild iterates them
#: deterministically and a change adds or drops one in O(1).
_Members = Dict[str, None]


class ReplicaLocation(NamedTuple):
    """One zone-qualified replica location, as the RLS reports it."""

    zone: str
    domain: str
    logical_resource: str
    physical_name: str


class BloomDigest:
    """A compressed membership summary of one LRC shard.

    Plain bloom filter over a ``bytearray`` bit set: :attr:`_PROBES`
    probe positions per key derived by double hashing two salted,
    :func:`_mix`-finalized CRC32s (deterministic across runs and
    processes — no :func:`hash`, which randomizes per interpreter; and
    decorrelated from the CRC-based shard partition, which raw salted
    CRCs are not). The pair depends only on the key, so a locate hashes
    its guid once (:func:`_hash_pair`) and tests every digest in the
    shard with that pair. False positives at the configured load are
    ~1–2 %; false negatives are impossible, which is what lets the index
    tier promise "stale but never wrong" after LRC verification.
    """

    __slots__ = ("n_bits", "bits", "count")

    def __init__(self, n_bits: int) -> None:
        if n_bits < 8:
            n_bits = 8
        self.n_bits = n_bits
        self.bits = bytearray((n_bits + 7) // 8)
        self.count = 0

    @classmethod
    def for_capacity(cls, n_entries: int) -> "BloomDigest":
        """A digest sized for ``n_entries`` keys, :data:`BITS_PER_ENTRY`
        bits each."""
        return cls(max(64, n_entries * BITS_PER_ENTRY))

    @classmethod
    def of_members(cls, members: _Members) -> "BloomDigest":
        """A digest sized for and holding one shard's ``members``."""
        digest = cls.for_capacity(len(members))
        for guid in members:
            digest.add(guid)
        return digest

    def add(self, guid: str) -> None:
        """Set ``guid``'s probe bits (irreversible, as blooms are)."""
        h1, h2 = _hash_pair(guid.encode())
        bits = self.bits
        n_bits = self.n_bits
        for i in range(_PROBES):
            position = (h1 + i * h2) % n_bits
            bits[position >> 3] |= 1 << (position & 7)
        self.count += 1

    def might_contain(self, guid: str) -> bool:
        """Membership test: False is definitive, True may be a false
        positive (the caller verifies against the authoritative LRC)."""
        return self._test_pair(*_hash_pair(guid.encode()))

    def _test_pair(self, h1: int, h2: int) -> bool:
        """:meth:`might_contain` for a guid whose :func:`_hash_pair` is
        known."""
        bits = self.bits
        n_bits = self.n_bits
        for i in range(_PROBES):
            position = (h1 + i * h2) % n_bits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    @property
    def size_bytes(self) -> int:
        """Digest wire size — what a zone actually ships to the index."""
        return len(self.bits)


class LocalReplicaCatalog:
    """Tier 1: one zone's authoritative guid → locations catalog.

    Two modes share one surface:

    * **live** (``dgms`` given): membership mirrors the zone's
      :class:`~repro.grid.catalog.GridCatalog` through its change-listener
      feed, and :meth:`locations` resolves through the live namespace —
      answers are authoritative by construction. Registration/deregistration
      notifies :attr:`listeners` (the digest syncer's dirty feed).
    * **synthetic** (``dgms`` None): entries are added directly with
      :meth:`add` — the benchmark path, where millions of locations would
      be too heavy to back with real namespace objects.
    """

    def __init__(self, zone_name: str, dgms=None) -> None:
        self.zone_name = zone_name
        self.dgms = dgms
        #: Membership-change listeners: ``listener(guid)`` after a guid
        #: joins or leaves this catalog (:meth:`holds` says which).
        self.listeners = []
        self._static: Dict[str, Tuple[ReplicaLocation, ...]] = {}
        #: Authoritative queries answered (the "wasted query" accounting
        #: for digest false positives lives at the service level).
        self.queries = 0
        #: The live zone's catalog (None in synthetic mode).
        self._catalog = None
        if dgms is not None:
            self._catalog = dgms.namespace.catalog
            self._catalog.listeners.append(self._on_catalog_change)

    # -- live mode ------------------------------------------------------------

    def _on_catalog_change(self, kind: str, obj, attribute) -> None:
        if kind in ("register", "deregister"):
            for listener in self.listeners:
                listener(obj.guid)

    # -- synthetic mode -------------------------------------------------------

    def add(self, guid: str,
            locations: Sequence[ReplicaLocation] = ()) -> None:
        """Record ``guid`` with static ``locations`` (synthetic mode)."""
        if self.dgms is not None:
            raise FederationError(
                f"LRC {self.zone_name!r} mirrors a live datagrid; "
                "synthetic entries would shadow it")
        self._static[guid] = tuple(locations)
        for listener in self.listeners:
            listener(guid)

    def discard(self, guid: str) -> None:
        """Drop a synthetic entry (no-op when absent)."""
        if self._static.pop(guid, None) is not None:
            for listener in self.listeners:
                listener(guid)

    # -- the shared surface ---------------------------------------------------

    def guids(self) -> List[str]:
        """Every guid this zone holds, in registration order."""
        if self.dgms is not None:
            return self.dgms.namespace.guids()
        return list(self._static)

    def __len__(self) -> int:
        if self._catalog is not None:
            return len(self._catalog)
        return len(self._static)

    def holds(self, guid: str) -> bool:
        """Whether ``guid`` is a member here now. Unlike
        :meth:`locations` this counts no query: the service's membership
        feed asks it."""
        if self._catalog is not None:
            return self._catalog.lookup_guid(guid) is not None
        return guid in self._static

    def locations(self, guid: str) -> Tuple[ReplicaLocation, ...]:
        """Authoritative locations for ``guid`` here, now (may be empty).

        This is the verification step of every index hit: whatever the
        digest claimed, only what the zone actually holds is returned.
        """
        self.queries += 1
        catalog = self._catalog
        if catalog is None:
            return self._static.get(guid, ())
        obj = catalog.lookup_guid(guid)
        if obj is None:
            return ()
        return tuple(
            ReplicaLocation(self.zone_name, replica.domain,
                            replica.logical_resource, replica.physical_name)
            for replica in obj.good_replicas())


class _ZoneDigest:
    """One (shard, zone) cell of the index: a digest plus its publish time."""

    __slots__ = ("digest", "published_at")

    def __init__(self, digest: BloomDigest, published_at: float) -> None:
        self.digest = digest
        self.published_at = published_at


class ReplicaLocationIndex:
    """Tier 2: the sharded index of zone digests.

    ``n_shards`` hash-partitions of the guid space; each shard holds one
    digest per publishing zone. The index never stores a guid or a
    location — membership claims come compressed, answers come from the
    authoritative tier.
    """

    def __init__(self, n_shards: int = DEFAULT_SHARDS) -> None:
        if n_shards < 1:
            raise FederationError(f"need at least 1 shard, got {n_shards}")
        self.n_shards = n_shards
        self._shards: List[Dict[str, _ZoneDigest]] = [
            {} for _ in range(n_shards)]

    def shard_of(self, guid: str) -> int:
        """The shard responsible for ``guid`` under this index's count."""
        return shard_of(guid, self.n_shards)

    def publish(self, zone_name: str, shard_index: int,
                digest: BloomDigest, published_at: float) -> None:
        """Replace ``zone_name``'s digest for one shard."""
        self._shards[shard_index][zone_name] = _ZoneDigest(digest,
                                                           published_at)

    @property
    def size_bytes(self) -> int:
        """Total compressed index size across all shards and zones."""
        return sum(cell.digest.size_bytes
                   for shard in self._shards for cell in shard.values())


class LocateResult(NamedTuple):
    """One :meth:`ReplicaLocationService.locate` answer plus its receipts."""

    guid: str
    locations: Tuple[ReplicaLocation, ...]
    shard: int
    shards_touched: int
    digests_checked: int
    lrc_queries: int
    false_positives: int
    #: Age (sim seconds) of the *oldest* digest consulted; 0.0 when no
    #: digest matched or no clock is attached.
    max_staleness_s: float

    @property
    def found(self) -> bool:
        return bool(self.locations)


class ReplicaLocationService:
    """The federation-facing face of both tiers.

    Holds the LRC registry and the sharded index, answers
    :meth:`locate`, and keeps the service-level accounting. ``env`` is
    optional so the index scaling benchmark can run the service as a
    plain data structure; with an environment attached, digest staleness
    is measured in sim time and telemetry counters are mirrored.

    Each registered zone's guids are also kept partitioned by shard,
    current through the service's own listener on the zone's LRC, so
    :meth:`publish_shards` rebuilds a digest from its shard's members
    alone.
    """

    def __init__(self, env=None, n_shards: int = DEFAULT_SHARDS) -> None:
        self.env = env
        self.index = ReplicaLocationIndex(n_shards)
        self._lrcs: Dict[str, LocalReplicaCatalog] = {}
        #: Zone name → one :data:`_Members` dict per index shard.
        self._members: Dict[str, List[_Members]] = {}
        #: Zone name → :class:`~repro.federation.sync.DigestSyncer`, when
        #: :func:`attach_rls` wires eventually-consistent publication.
        self.syncers: Dict[str, object] = {}
        # The sync mode attach_rls chose, for zones that join later.
        self._sync_period_s: Optional[float] = None
        self._sync_streams = None
        #: Service counters (telemetry mirrors them when attached).
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.false_positives = 0
        self.lrc_queries = 0
        self.shards_touched = 0

    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    # -- zone membership ------------------------------------------------------

    def add_zone(self, lrc: LocalReplicaCatalog,
                 publish: bool = True) -> LocalReplicaCatalog:
        """Register a zone's LRC (publishing its current digests unless
        a syncer will — see :func:`attach_rls`).

        The zone's shard partition is built here from ``lrc.guids()``
        and kept current by a listener registered before any other the
        service adds, so every publication reads current membership.
        """
        if lrc.zone_name in self._lrcs:
            raise FederationError(
                f"zone {lrc.zone_name!r} already publishes to this index")
        self._lrcs[lrc.zone_name] = lrc
        lrc.listeners.append(partial(self._on_membership_change, lrc))
        if publish:
            self.publish_zone(lrc.zone_name)
        else:
            self._members[lrc.zone_name] = self._partition(lrc)
        return lrc

    def join_zone(self, zone_name: str, dgms) -> LocalReplicaCatalog:
        """Index a live zone the way :func:`attach_rls` indexes each zone
        present at attach: a live LRC, its digests published now, and
        the same sync mode (a seeded syncer, or synchronous publication).
        :meth:`~repro.grid.federation.Federation.add_zone` calls this for
        a zone federated after attach."""
        lrc = self.add_zone(LocalReplicaCatalog(zone_name, dgms))
        if self._sync_period_s is not None:
            self.syncers[zone_name] = DigestSyncer(
                self.env, self, lrc, period_s=self._sync_period_s,
                streams=self._sync_streams)
        else:
            lrc.listeners.append(
                lambda guid: self.publish_shards(
                    zone_name, [self.index.shard_of(guid)]))
        return lrc

    def lrc(self, zone_name: str) -> LocalReplicaCatalog:
        """The registered LRC for ``zone_name`` (raises if unknown)."""
        try:
            return self._lrcs[zone_name]
        except KeyError:
            raise FederationError(
                f"zone {zone_name!r} does not publish here") from None

    def zone_names(self) -> List[str]:
        """Zones publishing into this service, sorted."""
        return sorted(self._lrcs)

    def _partition(self, lrc: LocalReplicaCatalog) -> List[_Members]:
        """``lrc``'s guids split by shard."""
        n_shards = self.index.n_shards
        partition: List[_Members] = [{} for _ in range(n_shards)]
        for guid in lrc.guids():
            partition[shard_of(guid, n_shards)][guid] = None
        return partition

    def _on_membership_change(self, lrc: LocalReplicaCatalog,
                              guid: str) -> None:
        """LRC listener: add or drop ``guid`` in its shard's members."""
        members = self._members[lrc.zone_name][self.index.shard_of(guid)]
        if lrc.holds(guid):
            members[guid] = None
        else:
            members.pop(guid, None)

    # -- publishing -----------------------------------------------------------

    def publish_zone(self, zone_name: str) -> None:
        """Rebuild one zone's shard partition from its LRC and publish
        every shard digest: the one full rebuild (attach, and bulk loads
        that write the LRC without its listeners)."""
        self._members[zone_name] = self._partition(self.lrc(zone_name))
        self.publish_shards(zone_name, range(self.index.n_shards))

    def publish_shards(self, zone_name: str,
                       shard_indexes: Sequence[int]) -> None:
        """Rebuild and publish just ``shard_indexes`` for one zone (the
        dirty-shard path the digest syncer drives), each from its shard's
        members alone."""
        self.lrc(zone_name)   # raises for an unknown zone
        partition = self._members[zone_name]
        publish = self.index.publish
        now = self.now
        for shard_index in shard_indexes:
            publish(zone_name, shard_index,
                    BloomDigest.of_members(partition[shard_index]), now)

    # -- lookups --------------------------------------------------------------

    def locate(self, guid: str) -> LocateResult:
        """Federation-wide locations for ``guid``, stale-but-never-wrong.

        One shard, a digest test per publishing zone in that shard, an
        authoritative LRC query per digest match — and only
        LRC-confirmed locations in the answer. The guid is encoded and
        hashed once, and the shard's digests are tested in one pass.
        """
        shard_index, h1, h2 = _shard_and_pair(guid, self.index.n_shards)
        shard = self.index._shards[shard_index]
        lrcs = self._lrcs
        now = self.now
        # A tuple: one matching zone's answer is used as it is.
        locations: Tuple[ReplicaLocation, ...] = ()
        lrc_queries = 0
        false_positives = 0
        max_staleness = 0.0
        for zone_name, cell in shard.items():
            if cell.digest._test_pair(h1, h2):
                lrc_queries += 1
                staleness = now - cell.published_at
                if staleness > max_staleness:
                    max_staleness = staleness
                found = lrcs[zone_name].locations(guid)
                if found:
                    locations += found
                else:
                    false_positives += 1
        result = tuple.__new__(LocateResult, (
            guid, locations, shard_index, 1, len(shard),
            lrc_queries, false_positives, max_staleness))
        self._account(result, now)
        return result

    def _account(self, result: LocateResult, now: float) -> None:
        """Service counters for one answer, mirrored to telemetry (each
        series through its held child; the staleness sample is appended
        for the export-time fold)."""
        (_, locations, _, shards_touched, digests_checked, lrc_queries,
         false_positives, staleness) = result
        self.lookups += 1
        self.shards_touched += shards_touched
        self.lrc_queries += lrc_queries
        self.false_positives += false_positives
        if locations:
            self.hits += 1
        else:
            self.misses += 1
        if self.env is None:
            return
        telemetry = self.env.telemetry
        if telemetry is None:
            return
        telemetry.rls_lookups.bound["hit" if locations else "miss"].inc()
        telemetry.rls_shards_touched.inc(shards_touched)
        checks = telemetry.rls_digest_checks.bound
        if lrc_queries:
            checks["match"].inc(lrc_queries - false_positives)
            checks["false-positive"].inc(false_positives)
        rejected = digests_checked - lrc_queries
        if rejected:
            checks["reject"].inc(rejected)
        add_time, add_value = telemetry.rls_staleness.appends
        add_time(now)
        add_value(staleness)

    def flush_all(self) -> None:
        """Flush every zone's pending digest publications immediately
        (convergence helper for end-of-run checks; no-op without
        syncers)."""
        for zone_name in sorted(self.syncers):
            self.syncers[zone_name].flush_now()

    def stats(self) -> Dict[str, object]:
        """A plain-dict snapshot for reports and benchmarks."""
        return {
            "zones": len(self._lrcs),
            "n_shards": self.index.n_shards,
            "index_bytes": self.index.size_bytes,
            "lookups": self.lookups, "hits": self.hits,
            "misses": self.misses,
            "false_positives": self.false_positives,
            "lrc_queries": self.lrc_queries,
            "shards_touched": self.shards_touched,
        }


class FlatReplicaDirectory:
    """The single-catalog baseline E25 measures the sharded RLS against.

    One flat list of ``(guid, location)`` rows for the whole federation —
    the "one big replica catalog" a non-federated deployment would keep.
    :meth:`locate` scans it, so cost grows with total federation size
    while the sharded service's lookup cost stays at one shard. Kept as
    the reference model, not a production path.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[str, ReplicaLocation]] = []
        self.rows_scanned = 0

    def add(self, guid: str, locations: Sequence[ReplicaLocation]) -> None:
        """Append one row per location for ``guid``."""
        for location in locations:
            self._rows.append((guid, location))

    def __len__(self) -> int:
        return len(self._rows)

    def locate(self, guid: str) -> Tuple[ReplicaLocation, ...]:
        """Scan every row for ``guid`` (cost grows with the directory)."""
        found = []
        scanned = 0
        for row_guid, location in self._rows:
            scanned += 1
            if row_guid == guid:
                found.append(location)
        self.rows_scanned += scanned
        return tuple(found)


def attach_rls(federation, n_shards: int = DEFAULT_SHARDS,
               sync_period_s: Optional[float] = None,
               streams=None) -> ReplicaLocationService:
    """Wire a two-tier RLS onto ``federation`` and return it.

    Builds one live :class:`LocalReplicaCatalog` per federated zone,
    registers each with a fresh :class:`ReplicaLocationService`, and sets
    ``federation.rls`` (the duck-typed attach point
    :meth:`~repro.grid.federation.Federation.locate` resolves through).
    A zone federated later joins the service the same way
    (:meth:`ReplicaLocationService.join_zone`).

    With ``sync_period_s`` set, digest propagation is *eventually
    consistent*: each zone gets a seeded
    :class:`~repro.federation.sync.DigestSyncer` that batches catalog
    changes and republishes dirty shards one jittered period later —
    bounded staleness, visible in sim time. Without it, digests are
    republished synchronously on every change (the zero-staleness mode
    unit tests use).
    """
    if federation.rls is not None:
        raise FederationError("federation already has an RLS attached")
    service = ReplicaLocationService(federation.env, n_shards)
    service._sync_period_s = sync_period_s
    service._sync_streams = streams
    for zone_name in federation.zones():
        service.join_zone(zone_name, federation.zone(zone_name))
    federation.rls = service
    return service
