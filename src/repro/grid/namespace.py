"""The logical namespace: shared collections, data objects, replicas.

This is the core of data virtualization (§1): "a logical aggregation of
digital entities, e.g. files, which are physically distributed in multiple
physical storage resources that are owned by multiple administrative
domains". Names here are logical; a data object's bytes live in one or more
:class:`Replica` records pointing at physical resources, and renaming or
migrating never changes the logical identity.

Paths are Unix-style (``/home/projects/scec/file.dat``). Nodes carry an ACL
and user-defined metadata.
"""

from __future__ import annotations

import enum
import functools
import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import NamespaceError, ReplicaError
from repro.grid.acl import AccessControlList, Permission
from repro.grid.catalog import GridCatalog
from repro.grid.metadata import MetadataSet
from repro.grid.users import User

__all__ = [
    "normalize_path", "parent_path", "basename", "join_path",
    "ReplicaState", "Replica", "DataObject", "Collection", "LogicalNamespace",
]


# --------------------------------------------------------------------------
# Path helpers
# --------------------------------------------------------------------------


def normalize_path(path: str) -> str:
    """Canonicalize a logical path (absolute, no trailing slash, no empties)."""
    if not path or not path.startswith("/"):
        raise NamespaceError(f"logical paths must be absolute, got {path!r}")
    parts = [part for part in path.split("/") if part]
    for part in parts:
        if part in (".", ".."):
            raise NamespaceError(f"relative components not allowed: {path!r}")
    return "/" + "/".join(parts)


def parent_path(path: str) -> str:
    """Parent of a normalized path ('/' is its own parent)."""
    path = normalize_path(path)
    if path == "/":
        return "/"
    head, _, _ = path.rpartition("/")
    return head or "/"


def basename(path: str) -> str:
    """Final component of a normalized path ('' for the root)."""
    path = normalize_path(path)
    return path.rpartition("/")[2]


def join_path(parent: str, name: str) -> str:
    """Join a collection path and a child name."""
    if "/" in name:
        raise NamespaceError(f"child name cannot contain '/': {name!r}")
    parent = normalize_path(parent)
    return parent + name if parent == "/" else f"{parent}/{name}"


# --------------------------------------------------------------------------
# Nodes
# --------------------------------------------------------------------------


class ReplicaState(enum.Enum):
    """Lifecycle state of one physical copy."""

    GOOD = "good"
    STALE = "stale"   # logically superseded, awaiting cleanup


# A module global: the good-replica filter runs on every read, and an
# attribute load through the enum class costs ~10x a global load.
_GOOD = ReplicaState.GOOD


class Replica:
    """One physical copy of a data object.

    ``allocation_id`` is the key under which bytes are accounted on the
    physical resource; it embeds the object's immutable GUID so logical
    renames never touch physical state.

    Pass ``replica_number`` (the DGMS uses
    :meth:`LogicalNamespace.next_replica_number`) so numbering is scoped to
    one namespace and identical run-to-run; the module-level fallback
    counter exists only for standalone construction.
    """

    _counter = itertools.count(1)

    def __init__(self, object_guid: str, logical_resource: str, domain: str,
                 physical_name: str, created_at: float,
                 replica_number: Optional[int] = None) -> None:
        self.replica_number = (replica_number if replica_number is not None
                               else next(Replica._counter))
        self.object_guid = object_guid
        self.logical_resource = logical_resource
        self.domain = domain
        self.physical_name = physical_name
        self.created_at = created_at
        self.state = ReplicaState.GOOD

    @property
    def allocation_id(self) -> str:
        return f"{self.object_guid}#{self.replica_number}"

    def __repr__(self) -> str:
        return (f"<Replica #{self.replica_number} of {self.object_guid} on "
                f"{self.physical_name}@{self.domain} ({self.state.value})>")


class _Node:
    """Common state for collections and data objects."""

    def __init__(self, name: str, owner: Optional[User], created_at: float) -> None:
        self.name = name
        self.owner = owner
        self.created_at = created_at
        self.modified_at = created_at
        self.acl = AccessControlList(owner)
        self.metadata = MetadataSet()
        self.parent: Optional["Collection"] = None
        #: The owning namespace's catalog while this node is in its tree.
        self._catalog: Optional[GridCatalog] = None

    @functools.cached_property
    def path(self) -> str:
        """Full logical path, derived from the parent chain.

        Cached in the instance, so a read after the first is a plain
        attribute lookup; :func:`_forget_path` drops it for the whole
        subtree whenever an ancestor is moved or renamed.
        """
        return ("/" if self.parent is None
                else join_path(self.parent.path, self.name))


def _forget_path(node: _Node) -> None:
    """Drop ``node``'s cached :attr:`~_Node.path`."""
    node.__dict__.pop("path", None)


class DataObject(_Node):
    """A logical file: a name plus size, checksum, metadata, and replicas.

    Pass ``guid`` (:meth:`LogicalNamespace.create_object` mints one from its
    own counter) so identities are scoped to one namespace and identical
    run-to-run; standalone construction falls back to a module counter with
    a distinct ``guid-local-`` prefix so the two spaces cannot collide.
    """

    _local_guid_counter = itertools.count(1)

    def __init__(self, name: str, size: float, owner: Optional[User],
                 created_at: float, guid: Optional[str] = None) -> None:
        super().__init__(name, owner, created_at)
        self.size = float(size)
        self.guid = (guid if guid is not None
                     else f"guid-local-{next(DataObject._local_guid_counter):06d}")
        self.checksum: Optional[str] = None
        self.replicas: List[Replica] = []
        self.version = 1

    @property
    def size(self) -> float:
        """Logical size in bytes."""
        return self._size

    @size.setter
    def size(self, value: float) -> None:
        value = float(value)
        # NaN fails every comparison, so it would also break the
        # catalog's sorted size index, which answers size bounds exactly.
        if not value >= 0:
            raise NamespaceError(
                f"object size cannot be negative or NaN: {value}")
        self._size = value
        if self._catalog is not None:
            self._catalog.object_resized(self)

    def good_replicas(self) -> List[Replica]:
        """Replicas in GOOD state."""
        return [r for r in self.replicas if r.state is _GOOD]

    def replica_on(self, physical_name: str) -> Optional[Replica]:
        """The replica hosted on ``physical_name``, if any."""
        for replica in self.replicas:
            if replica.physical_name == physical_name:
                return replica
        return None

    def add_replica(self, replica: Replica) -> None:
        """Attach a replica (one per physical resource)."""
        if self.replica_on(replica.physical_name) is not None:
            raise ReplicaError(
                f"{self.path} already has a replica on {replica.physical_name}")
        self.replicas.append(replica)

    def remove_replica(self, replica: Replica) -> None:
        """Detach a replica (raises if it is not ours)."""
        try:
            self.replicas.remove(replica)
        except ValueError:
            raise ReplicaError(f"{replica!r} is not a replica of {self.path}") from None

    def __repr__(self) -> str:
        return f"<DataObject {self.path} {self.size:.0f} B x{len(self.replicas)} replicas>"


class Collection(_Node):
    """A logical directory: shared, hierarchical, spanning domains."""

    def __init__(self, name: str, owner: Optional[User], created_at: float) -> None:
        super().__init__(name, owner, created_at)
        self._children: Dict[str, _Node] = {}
        # Materialized sorted views, rebuilt lazily after attach/detach.
        self._listing_cache: Optional[List[_Node]] = None
        self._path_order_cache: Optional[List[_Node]] = None

    def child(self, name: str) -> Optional[_Node]:
        """The direct child named ``name``, or None."""
        return self._children.get(name)

    def children(self) -> List[_Node]:
        """Direct children, collections first, each group name-sorted."""
        cache = self._listing_cache
        if cache is None:
            cache = sorted(self._children.values(),
                           key=lambda n: (not isinstance(n, Collection), n.name))
            self._listing_cache = cache
        return list(cache)

    def _children_in_path_order(self) -> List[_Node]:
        """Direct children ordered so a DFS yields global path order.

        Suffixing collection names with ``/`` makes the sort key equal the
        child's path continuation, so ``b.dat`` sorts before collection
        ``b``'s descendants exactly as the full path strings would.
        """
        cache = self._path_order_cache
        if cache is None:
            cache = sorted(self._children.values(),
                           key=lambda n: (n.name + "/"
                                          if isinstance(n, Collection)
                                          else n.name))
            self._path_order_cache = cache
        return cache

    def _invalidate_listings(self) -> None:
        self._listing_cache = None
        self._path_order_cache = None

    def attach(self, node: _Node) -> None:
        """Add ``node`` as a child (rejects name collisions)."""
        if node.name in self._children:
            raise NamespaceError(
                f"{join_path(self.path, node.name)} already exists")
        self._children[node.name] = node
        node.parent = self
        self._invalidate_listings()
        _adopt_subtree(node, self._catalog)

    def detach(self, node: _Node) -> None:
        """Remove a direct child, clearing its parent link."""
        if self._children.get(node.name) is not node:
            raise NamespaceError(f"{node.name!r} is not a child of {self.path}")
        del self._children[node.name]
        node.parent = None
        self._invalidate_listings()
        _release_subtree(node)

    def __len__(self) -> int:
        return len(self._children)

    def __repr__(self) -> str:
        return f"<Collection {self.path} ({len(self)} children)>"


def _adopt_subtree(node: _Node, catalog: Optional[GridCatalog]) -> None:
    """Point ``node``'s subtree at ``catalog``, (re)indexing every object.

    Also drops every cached path in the subtree: attach is the only way a
    node's absolute path can change (create, move, federated import), so
    invalidation here is transitively complete.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        _forget_path(current)
        if isinstance(current, Collection):
            current._catalog = catalog
            stack.extend(current._children.values())
            continue
        previous = current._catalog
        current._catalog = catalog
        if previous is not catalog:
            if previous is not None:
                previous.deregister_object(current)
            if catalog is not None:
                catalog.register_object(current)


def _release_subtree(node: _Node) -> None:
    """Detach ``node``'s subtree from its catalog and drop cached paths."""
    stack = [node]
    while stack:
        current = stack.pop()
        _forget_path(current)
        catalog = current._catalog
        current._catalog = None
        if isinstance(current, Collection):
            stack.extend(current._children.values())
        elif catalog is not None:
            catalog.deregister_object(current)


# --------------------------------------------------------------------------
# The namespace
# --------------------------------------------------------------------------


class LogicalNamespace:
    """The datagrid's single logical tree of collections and data objects.

    Owns the :class:`~repro.grid.catalog.GridCatalog` (:attr:`catalog`)
    that mirrors the tree with secondary indexes; every attach/detach and
    metadata change keeps it current, and the query planner in
    :mod:`repro.grid.query` consults it for sublinear lookups. GUIDs and
    replica numbers are minted from namespace-scoped counters so repeated
    runs and reordered tests produce identical identifiers.
    """

    def __init__(self) -> None:
        self.catalog = GridCatalog()
        #: GUID authority tag. Empty for a standalone grid (guids are
        #: namespace-scoped); :meth:`~repro.grid.federation.Federation.
        #: add_zone` sets it to the zone name so every federated zone
        #: mints federation-unique guids (``guid-<zone>-<n>``) — the
        #: replica location service indexes by guid across zones.
        self.guid_authority = ""
        self._guid_counter = itertools.count(1)
        self._replica_counter = itertools.count(1)
        self.root = Collection(name="", owner=None, created_at=0.0)
        self.root._catalog = self.catalog
        # Bootstrap convention: the root is world-writable so domains can
        # create their top-level collections; they then lock down their own.
        self.root.acl.grant("*", Permission.WRITE)

    # -- identities ---------------------------------------------------------

    def next_guid(self) -> str:
        """Mint the next data-object GUID (deterministic; qualified by
        :attr:`guid_authority` when this namespace is a federated zone)."""
        if self.guid_authority:
            return f"guid-{self.guid_authority}-{next(self._guid_counter):08d}"
        return f"guid-{next(self._guid_counter):08d}"

    def next_replica_number(self) -> int:
        """Mint the next replica number (namespace-scoped, deterministic)."""
        return next(self._replica_counter)

    # -- resolution ---------------------------------------------------------

    def resolve(self, path: str) -> _Node:
        """Return the node at ``path`` or raise :class:`NamespaceError`."""
        path = normalize_path(path)
        node: _Node = self.root
        if path == "/":
            return node
        for part in path[1:].split("/"):
            if not isinstance(node, Collection):
                raise NamespaceError(f"{node.path} is not a collection")
            child = node.child(part)
            if child is None:
                raise NamespaceError(f"no such path: {path!r}")
            node = child
        return node

    def try_resolve(self, path: str) -> Optional[_Node]:
        """The node at ``path``, or None — one walk for exists+resolve."""
        try:
            return self.resolve(path)
        except NamespaceError:
            return None

    def lookup_guid(self, guid: str) -> Optional["DataObject"]:
        """The data object with ``guid``, via the catalog (O(1))."""
        return self.catalog.lookup_guid(guid)

    def guids(self) -> List[str]:
        """Every attached object's guid, in registration order."""
        return self.catalog.guids()

    def exists(self, path: str) -> bool:
        """True if ``path`` resolves."""
        return self.try_resolve(path) is not None

    def resolve_collection(self, path: str) -> Collection:
        """Resolve, insisting on a collection."""
        node = self.resolve(path)
        if not isinstance(node, Collection):
            raise NamespaceError(f"{path!r} is a data object, not a collection")
        return node

    def resolve_object(self, path: str) -> DataObject:
        """Resolve, insisting on a data object."""
        node = self.resolve(path)
        if not isinstance(node, DataObject):
            raise NamespaceError(f"{path!r} is a collection, not a data object")
        return node

    # -- mutation -----------------------------------------------------------

    def create_collection(self, path: str, owner: Optional[User],
                          created_at: float, parents: bool = False) -> Collection:
        """Create a collection (optionally creating missing ancestors)."""
        path = normalize_path(path)
        if path == "/":
            raise NamespaceError("the root collection always exists")
        if self.exists(path):
            raise NamespaceError(f"{path!r} already exists")
        parent_str = parent_path(path)
        if not self.exists(parent_str):
            if not parents:
                raise NamespaceError(f"parent {parent_str!r} does not exist")
            self.create_collection(parent_str, owner, created_at, parents=True)
        parent = self.resolve_collection(parent_str)
        collection = Collection(basename(path), owner, created_at)
        parent.attach(collection)
        return collection

    def create_object(self, path: str, size: float, owner: Optional[User],
                      created_at: float,
                      guid: Optional[str] = None) -> DataObject:
        """Register a new data object at ``path`` (no replicas yet).

        ``guid`` adopts an existing identity instead of minting one —
        the cross-zone copy path uses this so a copied object stays *the
        same logical object* (one guid, replicas in several zones). A
        guid already present in this namespace is refused: within one
        zone, more copies of an object are replicas, not new entries.
        """
        path = normalize_path(path)
        parent = self.resolve_collection(parent_path(path))
        if guid is not None and self.lookup_guid(guid) is not None:
            raise NamespaceError(
                f"guid {guid!r} already exists in this namespace; "
                "replicate the existing object instead")
        obj = DataObject(basename(path), size, owner, created_at,
                         guid=guid if guid is not None else self.next_guid())
        parent.attach(obj)
        return obj

    def remove(self, path: str) -> _Node:
        """Detach and return the node at ``path`` (collections must be empty)."""
        node = self.resolve(path)
        if node is self.root:
            raise NamespaceError("cannot remove the root collection")
        if isinstance(node, Collection) and len(node) > 0:
            raise NamespaceError(f"collection {path!r} is not empty")
        node.parent.detach(node)
        return node

    def move(self, src: str, dst: str) -> _Node:
        """Rename/move a node. Purely logical — replicas are untouched."""
        node = self.resolve(src)
        if node is self.root:
            raise NamespaceError("cannot move the root collection")
        dst = normalize_path(dst)
        if self.exists(dst):
            raise NamespaceError(f"destination {dst!r} already exists")
        new_parent = self.resolve_collection(parent_path(dst))
        # Refuse to move a collection under itself.
        probe: Optional[_Node] = new_parent
        while probe is not None:
            if probe is node:
                raise NamespaceError(f"cannot move {src!r} under itself")
            probe = probe.parent
        node.parent.detach(node)
        node.name = basename(dst)
        new_parent.attach(node)
        return node

    # -- traversal ----------------------------------------------------------

    def walk(self, path: str = "/") -> Iterator[Tuple[Collection, List[Collection], List[DataObject]]]:
        """Depth-first traversal, os.walk-style."""
        start = self.resolve_collection(path)
        stack = [start]
        while stack:
            collection = stack.pop()
            subcollections = [c for c in collection.children()
                              if isinstance(c, Collection)]
            objects = [o for o in collection.children()
                       if isinstance(o, DataObject)]
            yield collection, subcollections, objects
            stack.extend(reversed(subcollections))

    def iter_objects(self, path: str = "/") -> Iterator[DataObject]:
        """All data objects under ``path`` (recursive)."""
        for _, _, objects in self.walk(path):
            yield from objects

    def iter_objects_in_path_order(self, path: str = "/") -> Iterator[DataObject]:
        """All data objects under ``path``, in ascending path order.

        Unlike :meth:`iter_objects` (which yields a collection's direct
        objects before descending), this interleaves objects and
        subcollections so the yield order equals sorting by full path —
        which lets a limited query stop as soon as it has enough matches.
        """
        start = self.resolve_collection(path)

        def visit(collection: Collection) -> Iterator[DataObject]:
            for child in collection._children_in_path_order():
                if isinstance(child, Collection):
                    yield from visit(child)
                else:
                    yield child

        return visit(start)
