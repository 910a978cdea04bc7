"""The Data Grid Management System (DGMS) facade.

This class plays the role of the SDSC Storage Resource Broker in the paper:
a single logical data-management system federating storage owned by many
administrative domains (§1). It exposes:

* admin registration (domains, users, physical → logical resources);
* timed data operations (put / get / replicate / migrate / delete /
  checksum), each returning a simulation :class:`~repro.sim.kernel.Process`
  the caller yields on;
* instant catalog operations (collections, metadata, ACLs, queries, moves);
* before/after namespace events on :attr:`events` (the trigger hook);
* operation listeners and row readers (the provenance hook): each
  completed operation is one run-journal row for the readers, and one
  :class:`OperationRecord` for live listeners.

Every mutating call takes the acting :class:`~repro.grid.users.User` first
and enforces ACLs, because domain autonomy — who may touch what — is the
defining property of a datagrid.
"""

from __future__ import annotations

import hashlib
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple)

from repro.errors import (
    GridError, NamespaceError, NetworkError, ReplicaError, Retryable)
from repro.grid.acl import Permission, readable
from repro.grid.domains import DomainRegistry, DomainRole
from repro.grid.events import (
    EMPTY_DETAIL,
    EventBus,
    EventKind,
    EventPhase,
    NamespaceEvent,
)
from repro.grid.metadata import MetadataValue
from repro.grid.namespace import (
    Collection,
    DataObject,
    LogicalNamespace,
    Replica,
    ReplicaState,
    parent_path,
)
from repro.grid.query import Query
from repro.grid.resources import RegisteredResource, ResourceRegistry
from repro.grid.users import User, UserRegistry
from repro.network.topology import Topology
from repro.network.transfer import TransferService
from repro.sim.journal import Journal
from repro.sim.kernel import Environment, Process
from repro.storage.resource import PhysicalStorageResource

__all__ = ["DataGridManagementSystem", "OperationRecord"]


class OperationRecord(NamedTuple):
    """One completed DGMS operation, built once and shared by every live
    listener (so ``detail`` is read-only to all of them)."""

    operation: str
    user: Optional[str]
    path: str
    start_time: float
    end_time: float
    detail: Mapping[str, object] = EMPTY_DETAIL


class DataGridManagementSystem:
    """One datagrid: logical namespace + registries + timed operations."""

    def __init__(self, env: Environment, topology: Optional[Topology] = None,
                 name: str = "datagrid") -> None:
        self.env = env
        self.name = name
        self.topology = topology if topology is not None else Topology()
        self.transfers = TransferService(env, self.topology)
        self.namespace = LogicalNamespace()
        self.users = UserRegistry()
        self.domains = DomainRegistry()
        self.resources = ResourceRegistry()
        self.events = EventBus()
        #: Operation listeners; each receives every OperationRecord,
        #: except the entries of row readers (see :meth:`enroll`).
        self.operation_listeners: List[Callable[[OperationRecord], None]] = []
        #: The listed entries of enrolled row readers.
        self.readers: List[Callable] = []
        #: Where the rows go: the environment's journal, once a row
        #: reader enrolls.
        self.journal: Optional[Journal] = None
        #: Recovery service (duck-typed; see
        #: :func:`repro.faults.recovery.attach_recovery`). ``None`` means
        #: every operation takes its original, fail-fast code path —
        #: keeping this module import-free of the faults package.
        self.recovery = None
        #: Memoizing cache tier (duck-typed; see
        #: :func:`repro.dfms.cache.attach_cache`). ``None`` means every
        #: query and replica selection runs fresh — keeping this module
        #: import-free of the dfms package.
        self.cache = None
        #: Zone name once this datagrid joins a
        #: :class:`~repro.grid.federation.Federation` (set by
        #: ``Federation.add_zone``). ``None`` means unfederated; a grid
        #: can belong to at most one federation.
        self.zone_name: Optional[str] = None
        # Per-device I/O channel pools (for resources with a channel limit).
        self._io_slots: Dict[str, "Resource"] = {}

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------

    def register_domain(self, name: str,
                        role: DomainRole = DomainRole.PARTICIPANT):
        """Add an administrative domain (and a network node for it)."""
        domain = self.domains.register(name, role)
        self.topology.add_domain(name)
        return domain

    def register_user(self, name: str, domain: str,
                      groups=frozenset()) -> User:
        """Add a user homed at ``domain``."""
        if domain not in self.domains:
            raise GridError(f"unknown domain {domain!r}; register it first")
        user = self.users.register(name, domain, groups)
        self.domains.get(domain).user_names.add(user.qualified_name)
        return user

    def register_resource(self, logical_name: str, domain: str,
                          physical: PhysicalStorageResource):
        """Map a physical storage system at ``domain`` into the logical
        resource namespace under ``logical_name``."""
        if domain not in self.domains:
            raise GridError(f"unknown domain {domain!r}; register it first")
        logical = self.resources.register(logical_name, domain, physical)
        self.domains.get(domain).resource_names.add(physical.name)
        return logical

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _emit(self, kind: EventKind, phase: EventPhase, path: str,
              user: Optional[User], **detail) -> None:
        self.events.publish(tuple.__new__(NamespaceEvent, (
            kind, phase, path, self.env._now,
            user.qualified_name if user else None, detail)))

    def enroll(self, entry: Callable) -> Journal:
        """Enroll a row reader whose entry in :attr:`operation_listeners`
        is ``entry`` (listed once), and return the journal its rows land
        in.

        An operation is one row of :attr:`journal` for every enrolled
        reader together; their entries are not called, so a grid with
        only row readers builds no :class:`OperationRecord`.
        """
        if entry not in self.readers:
            self.readers.append(entry)
        if entry not in self.operation_listeners:
            self.operation_listeners.append(entry)
        self.journal = self.env.journal
        return self.journal

    def _record(self, operation: str, user: Optional[User], path: str,
                start_time: float, **detail) -> None:
        """Announce one completed operation: the first row reader's entry
        in :attr:`operation_listeners` appends its row, and each other
        listener gets the one :class:`OperationRecord`."""
        listeners = self.operation_listeners
        if listeners:
            readers = self.readers
            name = user.qualified_name if user else None
            now = self.env._now
            row = record = None
            for listener in listeners:
                if listener in readers:
                    if row is None:
                        row = self.journal.add(operation, self, path, None,
                                               start_time, now, name, None,
                                               detail)
                    continue
                if record is None:
                    record = tuple.__new__(OperationRecord, (
                        operation, name, path, start_time, now, detail))
                listener(record)

    def _registered(self, replica: Replica) -> RegisteredResource:
        return self.resources.physical(replica.physical_name)

    def _wan(self, src: str, dst: str, nbytes: float):
        """Generator: one WAN leg, resumable when recovery is attached.

        Without a recovery service this is exactly the original
        ``yield transfer(...)`` (bit-identical timing); with one, an
        interrupted transfer resumes from its byte offset and a missing
        route backs off until routing recovers.
        """
        if self.recovery is None:
            yield self.transfers.transfer(src, dst, nbytes)
        else:
            yield from self.recovery.run_transfer(
                self.transfers, src, dst, nbytes)

    def _timed_io(self, physical: PhysicalStorageResource, duration: float):
        """Generator: one I/O of ``duration`` honoring the device's
        channel limit (``channels == 0`` means uncontended)."""
        if physical.channels <= 0:
            yield self.env.timeout(duration)
            return
        slots = self._io_slots.get(physical.name)
        if slots is None:
            from repro.sim.resources import Resource as SlotPool
            slots = SlotPool(self.env, capacity=physical.channels)
            self._io_slots[physical.name] = slots
        request = slots.request()
        yield request
        try:
            yield self.env.timeout(duration)
        finally:
            slots.release(request)

    # ------------------------------------------------------------------
    # Instant catalog operations
    # ------------------------------------------------------------------

    def create_collection(self, user: User, path: str,
                          parents: bool = False) -> Collection:
        """Create a (shared) collection; WRITE on the parent is required."""
        parent = parent_path(path)
        if self.namespace.exists(parent):
            self.namespace.resolve_collection(parent).acl.require(
                user, Permission.WRITE, parent)
        elif not parents:
            raise NamespaceError(f"parent {parent!r} does not exist")
        self._emit(EventKind.COLLECTION_CREATE, EventPhase.BEFORE, path, user)
        start = self.env.now
        collection = self.namespace.create_collection(
            path, user, self.env.now, parents=parents)
        self._emit(EventKind.COLLECTION_CREATE, EventPhase.AFTER, path, user)
        self._record("create_collection", user, path, start)
        return collection

    def set_metadata(self, user: User, path: str, attribute: str,
                     value: MetadataValue, unit: Optional[str] = None) -> None:
        """Attach user-defined metadata; WRITE on the node is required."""
        node = self.namespace.resolve(path)
        node.acl.require(user, Permission.WRITE, path)
        self._emit(EventKind.METADATA, EventPhase.BEFORE, path, user,
                   attribute=attribute, value=value)
        start = self.env.now
        node.metadata.set(attribute, value, unit)
        node.modified_at = self.env.now
        self._emit(EventKind.METADATA, EventPhase.AFTER, path, user,
                   attribute=attribute, value=value)
        self._record("set_metadata", user, path, start,
                     attribute=attribute, value=value)

    def grant(self, user: User, path: str, principal: str,
              permission: Permission) -> None:
        """Change a node's ACL; OWN is required."""
        node = self.namespace.resolve(path)
        node.acl.require(user, Permission.OWN, path)
        self._emit(EventKind.ACL_CHANGE, EventPhase.BEFORE, path, user,
                   principal=principal, permission=permission.name)
        start = self.env.now
        node.acl.grant(principal, permission)
        if self.cache is not None:
            self.cache.on_acl_change(path)
        self._emit(EventKind.ACL_CHANGE, EventPhase.AFTER, path, user,
                   principal=principal, permission=permission.name)
        self._record("grant", user, path, start,
                     principal=principal, permission=permission.name)

    def move(self, user: User, src: str, dst: str) -> None:
        """Logical rename/move; physical replicas are untouched (§1)."""
        node = self.namespace.resolve(src)
        node.acl.require(user, Permission.WRITE, src)
        self.namespace.resolve_collection(parent_path(dst)).acl.require(
            user, Permission.WRITE, parent_path(dst))
        self._emit(EventKind.MOVE, EventPhase.BEFORE, src, user, destination=dst)
        start = self.env.now
        self.namespace.move(src, dst)
        node.modified_at = self.env.now
        self._emit(EventKind.MOVE, EventPhase.AFTER, dst, user, source=src)
        self._record("move", user, src, start, destination=dst)

    def stat(self, user: User, path: str):
        """Resolve a node the user can READ."""
        node = self.namespace.resolve(path)
        node.acl.require(user, Permission.READ, path)
        return node

    def list_collection(self, user: User, path: str):
        """Children of a collection the user can READ."""
        collection = self.namespace.resolve_collection(path)
        collection.acl.require(user, Permission.READ, path)
        return collection.children()

    def query(self, user: User, query: Query) -> List[DataObject]:
        """Run a datagrid query; results are filtered to READable objects.

        The cache tier (when attached) memoizes the post-ACL result list
        per caller; :meth:`grant` notifies it, so permission changes made
        through the DGMS never serve stale visibility.
        """
        if self.cache is not None:
            return self.cache.run_query(user, query)
        return readable(user, query.run(self.namespace, self.env.telemetry),
                        Permission.READ)

    def query_paths(self, user: User, query: Query) -> List[str]:
        """The paths of :meth:`query`'s results, in the same order.

        This is what ``srb.query`` and ``forEach`` iteration consume. With
        the cache tier attached, a hit returns the entry's memoized path
        list (copied) instead of re-reading every object's path.
        """
        if self.cache is not None:
            return self.cache.run_query_paths(user, query)
        return [obj.path for obj in self.query(user, query)]

    # ------------------------------------------------------------------
    # Timed data operations (each returns a sim Process to yield on)
    # ------------------------------------------------------------------

    def _spawn(self, generator) -> Process:
        """Run a data operation as a kernel process.

        The spawning process's span context (typically an engine step's
        span, pinned on ``Process._tspan``) is copied onto the new
        process so transfer spans started there nest correctly.
        """
        process = self.env.process(generator)
        active = self.env._active_process
        if active is not None:
            process._tspan = active._tspan
        return process

    def put(self, user: User, path: str, size: float, logical_resource: str,
            source_domain: Optional[str] = None,
            metadata: Optional[Dict[str, MetadataValue]] = None,
            guid: Optional[str] = None) -> Process:
        """Ingest a new data object at ``path`` onto ``logical_resource``.

        If ``source_domain`` is given the bytes travel over the network from
        there to the chosen storage domain first. ``guid`` adopts an
        existing identity (the cross-zone copy path) instead of minting
        a fresh one.
        """
        return self._spawn(self._put(
            user, path, size, logical_resource, source_domain, metadata,
            guid))

    def _put(self, user, path, size, logical_resource, source_domain,
             metadata, guid=None):
        parent = self.namespace.resolve_collection(parent_path(path))
        parent.acl.require(user, Permission.WRITE, parent.path)
        member = self.resources.logical(logical_resource).select_for_write(size)
        self._emit(EventKind.INSERT, EventPhase.BEFORE, path, user,
                   size=size, resource=logical_resource)
        start = self.env.now
        if source_domain is not None:
            yield from self._wan(source_domain, member.domain, size)
        obj = self.namespace.create_object(path, size, user, self.env.now,
                                           guid=guid)
        replica = Replica(obj.guid, logical_resource, member.domain,
                          member.name, self.env.now,
                          replica_number=self.namespace.next_replica_number())
        try:
            duration = member.physical.write(replica.allocation_id, size)
        except Exception:
            # A failed ingest must not leave an orphan (replica-less)
            # entry in the namespace.
            self.namespace.remove(path)
            raise
        yield from self._timed_io(member.physical, duration)
        obj.add_replica(replica)
        if metadata:
            for attribute, value in metadata.items():
                obj.metadata.set(attribute, value)
        self._emit(EventKind.INSERT, EventPhase.AFTER, path, user,
                   size=size, resource=logical_resource, domain=member.domain)
        self._record("put", user, path, start, size=size,
                     resource=logical_resource, physical=member.name,
                     domain=member.domain)
        return obj

    def get(self, user: User, path: str, to_domain: str,
            replica_policy: str = "nearest") -> Process:
        """Read a data object's bytes to ``to_domain``.

        ``replica_policy`` selects the source replica: ``nearest`` (least
        transfer time — the DGMS-side replica selection of §2.3) or
        ``fixed`` (always the first replica — the baseline for E7).
        """
        return self._spawn(self._get(user, path, to_domain, replica_policy))

    def select_replica(self, obj: DataObject, to_domain: str,
                       policy: str = "nearest",
                       exclude: Optional[set] = None) -> Replica:
        """Pick the source replica for a read to ``to_domain``.

        ``exclude`` is a set of replica numbers already tried and failed
        this operation (the failover path); they are skipped so the next
        attempt goes to an alternate replica. The cache tier (when
        attached) memoizes non-exclude lookups, stamped against the
        topology version and the object's replica set; the failover path
        always recomputes.
        """
        replicas = obj.good_replicas()
        if exclude:
            replicas = [r for r in replicas
                        if r.replica_number not in exclude]
        if not replicas:
            raise ReplicaError(
                f"{obj.path} has no good replicas"
                + (" left to try" if exclude else ""))
        cache = self.cache if not exclude else None
        if cache is not None:
            cached = cache.lookup_replica(obj, to_domain, policy, replicas)
            if cached is not None:
                return cached
        choice = self._choose_replica(obj, to_domain, policy, replicas)
        if cache is not None:
            cache.store_replica(obj, to_domain, policy, replicas, choice)
        return choice

    def _choose_replica(self, obj: DataObject, to_domain: str,
                        policy: str, replicas: List[Replica]) -> Replica:
        if policy == "fixed":
            return min(replicas, key=lambda r: r.replica_number)
        if policy == "nearest":
            return self.nearest_replica(obj, to_domain, replicas)[0]
        raise GridError(f"unknown replica policy {policy!r}")

    def nearest_replica(self, obj: DataObject, to_domain: str,
                        replicas: Sequence[Replica]) -> Tuple[Replica, float]:
        """The replica of ``obj`` cheapest to read to ``to_domain``, and
        its uncontended transfer time.

        Each of the (non-empty) ``replicas`` costs what
        :meth:`Topology.transfer_time` says for ``obj.size`` bytes, the
        same float: ``0.0`` over a local route, else latency plus size
        over the bottleneck bandwidth. The lowest (cost, replica number)
        wins, so ties go to the older replica. Routes come from the
        destination's route map in one pass, with no call per candidate.
        """
        size = obj.size
        if size < 0:
            raise NetworkError(f"negative transfer size: {size}")
        routes = self.topology.routes_to(to_domain)
        best = None
        best_cost = best_number = 0
        for replica in replicas:
            route = routes[replica.domain]
            cost = (route.latency_s + size / route.bottleneck_bps
                    if route.links else 0.0)
            number = replica.replica_number
            if best is None or cost < best_cost or (
                    cost == best_cost and number < best_number):
                best, best_cost, best_number = replica, cost, number
        return best, best_cost

    def _get(self, user, path, to_domain, replica_policy):
        obj = self.namespace.resolve_object(path)
        obj.acl.require(user, Permission.READ, path)
        start = self.env.now
        if self.recovery is None:
            replica = self.select_replica(obj, to_domain, replica_policy)
            registered = self._registered(replica)
            duration = registered.physical.read(replica.allocation_id)
            yield from self._timed_io(registered.physical, duration)
            yield self.transfers.transfer(replica.domain, to_domain,
                                          obj.size)
        else:
            replica = yield from self._get_resilient(
                obj, to_domain, replica_policy)
        self._record("get", user, path, start, size=obj.size,
                     source_domain=replica.domain, to_domain=to_domain,
                     physical=replica.physical_name)
        return obj

    def _get_resilient(self, obj, to_domain, replica_policy):
        """Failover read: replicas are tried in policy order; a replica
        whose read or transfer fails with a retryable error is excluded
        and the next-best one is tried. When every replica has failed,
        the round resets after a policy backoff (an outage may have
        ended by then). Non-retryable errors propagate immediately, and
        an object with no good replicas at all still raises."""
        recovery = self.recovery
        excluded: set = set()
        rounds = 0
        while True:
            try:
                replica = self.select_replica(obj, to_domain,
                                              replica_policy,
                                              exclude=excluded)
            except ReplicaError:
                if not excluded:
                    raise   # genuinely nothing to read, not a fault
                rounds += 1
                if rounds >= recovery.policy.max_attempts:
                    raise
                yield from recovery.backoff(rounds, operation="get",
                                            path=obj.path)
                excluded.clear()
                continue
            try:
                registered = self._registered(replica)
                duration = registered.physical.read(replica.allocation_id)
                yield from self._timed_io(registered.physical, duration)
                yield from recovery.run_transfer(
                    self.transfers, replica.domain, to_domain, obj.size)
                return replica
            except Exception as exc:
                if not isinstance(exc, Retryable):
                    raise
                excluded.add(replica.replica_number)
                recovery.note("failover", path=obj.path,
                              replica=replica.physical_name,
                              error=type(exc).__name__)

    def replicate(self, user: User, path: str, to_logical_resource: str,
                  replica_policy: str = "nearest") -> Process:
        """Create an additional replica on ``to_logical_resource``."""
        return self._spawn(self._replicate(
            user, path, to_logical_resource, replica_policy))

    def _replicate(self, user, path, to_logical_resource, replica_policy):
        obj = self.namespace.resolve_object(path)
        obj.acl.require(user, Permission.WRITE, path)
        target = self.resources.logical(to_logical_resource).select_for_write(obj.size)
        if obj.replica_on(target.name) is not None:
            raise ReplicaError(
                f"{path} already has a replica on {target.name}")
        source = self.select_replica(obj, target.domain, replica_policy)
        self._emit(EventKind.REPLICATE, EventPhase.BEFORE, path, user,
                   to_resource=to_logical_resource)
        start = self.env.now
        source_registered = self._registered(source)
        yield from self._timed_io(
            source_registered.physical,
            source_registered.physical.read(source.allocation_id))
        yield from self._wan(source.domain, target.domain, obj.size)
        replica = Replica(obj.guid, to_logical_resource, target.domain,
                          target.name, self.env.now,
                          replica_number=self.namespace.next_replica_number())
        duration = target.physical.write(replica.allocation_id, obj.size)
        yield from self._timed_io(target.physical, duration)
        obj.add_replica(replica)
        self._emit(EventKind.REPLICATE, EventPhase.AFTER, path, user,
                   to_resource=to_logical_resource, domain=target.domain)
        self._record("replicate", user, path, start, size=obj.size,
                     from_domain=source.domain, to_domain=target.domain,
                     physical=target.name)
        return replica

    def migrate(self, user: User, path: str, from_physical: str,
                to_logical_resource: str) -> Process:
        """Move one replica to another resource (ILM's placement change)."""
        return self._spawn(self._migrate(
            user, path, from_physical, to_logical_resource))

    def _migrate(self, user, path, from_physical, to_logical_resource):
        obj = self.namespace.resolve_object(path)
        obj.acl.require(user, Permission.WRITE, path)
        source = obj.replica_on(from_physical)
        if source is None:
            raise ReplicaError(f"{path} has no replica on {from_physical!r}")
        target = self.resources.logical(to_logical_resource).select_for_write(obj.size)
        self._emit(EventKind.MIGRATE, EventPhase.BEFORE, path, user,
                   from_physical=from_physical, to_resource=to_logical_resource)
        start = self.env.now
        source_registered = self._registered(source)
        yield from self._timed_io(
            source_registered.physical,
            source_registered.physical.read(source.allocation_id))
        yield from self._wan(source.domain, target.domain, obj.size)
        replica = Replica(obj.guid, to_logical_resource, target.domain,
                          target.name, self.env.now,
                          replica_number=self.namespace.next_replica_number())
        yield from self._timed_io(
            target.physical,
            target.physical.write(replica.allocation_id, obj.size))
        obj.add_replica(replica)
        yield from self._timed_io(
            source_registered.physical,
            source_registered.physical.delete(source.allocation_id))
        obj.remove_replica(source)
        self._emit(EventKind.MIGRATE, EventPhase.AFTER, path, user,
                   from_physical=from_physical, to_physical=target.name)
        self._record("migrate", user, path, start, size=obj.size,
                     from_physical=from_physical, to_physical=target.name,
                     from_domain=source.domain, to_domain=target.domain)
        return replica

    def remove_replica(self, user: User, path: str, physical_name: str) -> Process:
        """Delete one replica; the last good replica cannot be removed."""
        return self._spawn(self._remove_replica(user, path, physical_name))

    def _remove_replica(self, user, path, physical_name):
        obj = self.namespace.resolve_object(path)
        obj.acl.require(user, Permission.OWN, path)
        replica = obj.replica_on(physical_name)
        if replica is None:
            raise ReplicaError(f"{path} has no replica on {physical_name!r}")
        good = obj.good_replicas()
        if replica in good and len(good) == 1:
            raise ReplicaError(
                f"refusing to remove the last good replica of {path}")
        start = self.env.now
        registered = self._registered(replica)
        yield from self._timed_io(
            registered.physical,
            registered.physical.delete(replica.allocation_id))
        obj.remove_replica(replica)
        self._record("remove_replica", user, path, start,
                     physical=physical_name)

    def delete(self, user: User, path: str) -> Process:
        """Remove a data object and every replica."""
        return self._spawn(self._delete(user, path))

    def _delete(self, user, path):
        obj = self.namespace.resolve_object(path)
        obj.acl.require(user, Permission.OWN, path)
        self._emit(EventKind.DELETE, EventPhase.BEFORE, path, user,
                   size=obj.size)
        start = self.env.now
        for replica in list(obj.replicas):
            registered = self._registered(replica)
            yield from self._timed_io(
                registered.physical,
                registered.physical.delete(replica.allocation_id))
            obj.remove_replica(replica)
        self.namespace.remove(path)
        self._emit(EventKind.DELETE, EventPhase.AFTER, path, user, size=obj.size)
        self._record("delete", user, path, start, size=obj.size)

    def checksum(self, user: User, path: str, algorithm: str = "md5") -> Process:
        """Compute and record the object's checksum (a timed full read).

        Content is simulated, so the digest is a deterministic function of
        the object's identity, version, and size — stable across replicas,
        changed by any overwrite, which is all the data-integrity pipelines
        (§4's UCSD Libraries run) rely on.
        """
        return self._spawn(self._checksum(user, path, algorithm))

    def _checksum(self, user, path, algorithm):
        if algorithm != "md5":
            raise GridError(f"unsupported checksum algorithm {algorithm!r}")
        obj = self.namespace.resolve_object(path)
        obj.acl.require(user, Permission.READ, path)
        replicas = obj.good_replicas()
        if not replicas:
            raise ReplicaError(f"{path} has no good replicas")
        replica = min(replicas, key=lambda r: r.replica_number)
        start = self.env.now
        registered = self._registered(replica)
        yield from self._timed_io(
            registered.physical,
            registered.physical.read(replica.allocation_id))
        digest = hashlib.md5(
            f"{obj.guid}:v{obj.version}:{obj.size:.0f}".encode()).hexdigest()
        obj.checksum = digest
        self._record("checksum", user, path, start, digest=digest,
                     algorithm=algorithm)
        return digest

    def overwrite(self, user: User, path: str, new_size: float) -> Process:
        """Replace an object's contents (version bump; other replicas go stale)."""
        return self._spawn(self._overwrite(user, path, new_size))

    def _overwrite(self, user, path, new_size):
        obj = self.namespace.resolve_object(path)
        obj.acl.require(user, Permission.WRITE, path)
        replicas = obj.good_replicas()
        if not replicas:
            raise ReplicaError(f"{path} has no good replicas")
        primary = min(replicas, key=lambda r: r.replica_number)
        self._emit(EventKind.UPDATE, EventPhase.BEFORE, path, user,
                   new_size=new_size)
        start = self.env.now
        registered = self._registered(primary)
        yield from self._timed_io(
            registered.physical,
            registered.physical.delete(primary.allocation_id))
        obj.size = float(new_size)
        obj.version += 1
        obj.checksum = None
        yield from self._timed_io(
            registered.physical,
            registered.physical.write(primary.allocation_id, new_size))
        for replica in replicas:
            if replica is not primary:
                replica.state = ReplicaState.STALE
        obj.modified_at = self.env.now
        self._emit(EventKind.UPDATE, EventPhase.AFTER, path, user,
                   new_size=new_size, version=obj.version)
        self._record("overwrite", user, path, start, new_size=new_size,
                     version=obj.version)
        return obj
