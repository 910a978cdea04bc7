"""The metadata catalog: MCAT-style indexes over the logical namespace.

SRB keeps every query-relevant fact about the namespace in the MCAT
metadata catalog so that triggers, ILM policies, and DGL execution logic
can evaluate datagrid queries without touching the storage systems — and
without walking the whole namespace. This module is that catalog for the
reproduction: a set of secondary indexes over :class:`~repro.grid.namespace.
LogicalNamespace`, maintained *incrementally* by the namespace itself
(attach/detach hooks) and by each data object's
:class:`~repro.grid.metadata.MetadataSet` (change hooks).

Indexes maintained:

* ``guid`` → data object (exact lookup);
* inverted metadata index: attribute → value → objects, in two keyings —
  by ``str(value)`` for every value and by ``float(value)`` for numeric
  values — mirroring the query language's mixed string/numeric equality;
* per-attribute EXISTS sets (attribute → objects carrying it);
* a sorted size index for range conjuncts (``size > …``, ``size <= …``),
  answering every size bound of a query as one merged, exact range.

Every metadata posting (one value's objects, or one attribute's EXISTS
set) is a :class:`_Posting`: an identity-keyed dict, so inserts and
removals stay O(1), plus a path-ordered *view* of its members. The view
is built by one sort on the first read. While inserts arrive in path
order (an ingest appending to a collection) they extend it in place; an
insert out of order, or any removal, drops it, and the next read sorts
again. A posting that is never read is never sorted. Lookups return
their candidates in path order, which lets the planner take a scope as
one bisected slice and a ``limit`` as the slice's first entries.

Index lookups return *candidate supersets*, and the query planner in
:mod:`repro.grid.query` re-verifies the conditions a lookup does not
guarantee. Three lookups are exact and are relied on as such: the
string-keyed posting list (``meta:a = 'v'`` with a string value), the
EXISTS set, and the size range for the size bounds it was asked for.
"""

from __future__ import annotations

import bisect
import heapq
import operator
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.grid.metadata import MetadataValue

if TYPE_CHECKING:   # pragma: no cover - import cycle guard, typing only
    from repro.grid.namespace import DataObject

__all__ = ["GridCatalog"]

#: Sorts after every real guid in the (size, guid) key space.
_AFTER_ANY_GUID = "\uffff"

#: ``(op, value)`` pairs, ``op`` one of ``=``, ``>``, ``>=``, ``<``, ``<=``.
SizeBounds = Sequence[Tuple[str, float]]


_PATH = operator.attrgetter("path")


def _is_numeric(value: MetadataValue) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Posting(dict):
    """``{id(obj): obj}`` for one index key, plus its path-ordered view.

    ``view`` is None until :func:`_in_path_order` sorts the members;
    :meth:`GridCatalog._add` extends or drops it and
    :meth:`GridCatalog._discard` drops it. An object's path changes only
    while it is out of the catalog (a move deregisters and re-registers
    it), so a view stays sorted until a member is added out of order or
    removed.
    """

    __slots__ = ("view",)


def _in_path_order(posting: Optional[_Posting]) -> List["DataObject"]:
    """``posting``'s members by path: the catalog's own list, not a copy."""
    if posting is None:
        return []
    view = posting.view
    if view is None:
        view = posting.view = sorted(posting.values(), key=_PATH)
    return view


def _union_in_path_order(first: List["DataObject"],
                         second: List["DataObject"]) -> List["DataObject"]:
    """Merge two path-ordered lists, keeping an object in both once."""
    if not second:
        return first
    if not first:
        return second
    merged: List["DataObject"] = []
    previous = None
    for obj in heapq.merge(first, second, key=_PATH):
        if obj is not previous:
            merged.append(obj)
        previous = obj
    return merged


class GridCatalog:
    """Incrementally-maintained secondary indexes for one namespace."""

    def __init__(self) -> None:
        self._by_guid: Dict[str, "DataObject"] = {}
        # attribute -> str(value) -> posting  (every value)
        self._meta_str: Dict[str, Dict[str, _Posting]] = {}
        # attribute -> float(value) -> posting  (numeric values only)
        self._meta_num: Dict[str, Dict[float, _Posting]] = {}
        # attribute -> posting  (EXISTS)
        self._meta_exists: Dict[str, _Posting] = {}
        # Sorted (size, guid) keys; guid resolves back through _by_guid.
        self._size_keys: List[Tuple[float, str]] = []
        # The size each object is currently indexed under (sizes mutate on
        # overwrite; the key must be removed under its *old* value).
        self._indexed_size: Dict[str, float] = {}
        #: Change listeners: ``listener(kind, obj, attribute)`` is called
        #: after every index mutation — ``kind`` is one of ``register``,
        #: ``deregister``, ``metadata`` (with the changed attribute), or
        #: ``resize``. This is the precise invalidation feed a memoizing
        #: cache tier (:mod:`repro.dfms.cache`) keys its evictions on:
        #: anything that can change a query's result set passes through
        #: exactly one of these four mutations.
        self.listeners: List[
            Callable[[str, "DataObject", Optional[str]], None]] = []

    def _changed(self, kind: str, obj: "DataObject",
                 attribute: Optional[str] = None) -> None:
        for listener in self.listeners:
            listener(kind, obj, attribute)

    # -- bookkeeping ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of indexed data objects."""
        return len(self._by_guid)

    def register_object(self, obj: "DataObject") -> None:
        """Index ``obj`` (called by the namespace when it joins the tree)."""
        self._by_guid[obj.guid] = obj
        bisect.insort(self._size_keys, (obj.size, obj.guid))
        self._indexed_size[obj.guid] = obj.size
        for attribute, value in obj.metadata.items():
            self._index_meta(obj, attribute, value)
        obj.metadata._bind(obj, self._on_metadata_change)
        if self.listeners:
            self._changed("register", obj)

    def deregister_object(self, obj: "DataObject") -> None:
        """Drop ``obj`` from every index (it left the tree)."""
        obj.metadata._bind(None, None)
        for attribute, value in obj.metadata.items():
            self._unindex_meta(obj, attribute, value)
        size = self._indexed_size.pop(obj.guid, None)
        if size is not None:
            index = bisect.bisect_left(self._size_keys, (size, obj.guid))
            if (index < len(self._size_keys)
                    and self._size_keys[index] == (size, obj.guid)):
                del self._size_keys[index]
        self._by_guid.pop(obj.guid, None)
        if self.listeners:
            self._changed("deregister", obj)

    # -- change hooks --------------------------------------------------------

    def _on_metadata_change(self, obj: "DataObject", attribute: str,
                            old: Optional[MetadataValue],
                            new: Optional[MetadataValue]) -> None:
        if old is not None:
            self._unindex_meta(obj, attribute, old)
        if new is not None:
            self._index_meta(obj, attribute, new)
        if self.listeners:
            self._changed("metadata", obj, attribute)

    def object_resized(self, obj: "DataObject") -> None:
        """Re-key the size index after ``obj.size`` changed (overwrite)."""
        old = self._indexed_size.get(obj.guid)
        if old is None:
            return
        index = bisect.bisect_left(self._size_keys, (old, obj.guid))
        if (index < len(self._size_keys)
                and self._size_keys[index] == (old, obj.guid)):
            del self._size_keys[index]
        bisect.insort(self._size_keys, (obj.size, obj.guid))
        self._indexed_size[obj.guid] = obj.size
        if self.listeners:
            self._changed("resize", obj)

    def _index_meta(self, obj: "DataObject", attribute: str,
                    value: MetadataValue) -> None:
        self._add(self._meta_exists, attribute, obj)
        self._add(self._meta_str.setdefault(attribute, {}), str(value), obj)
        if _is_numeric(value):
            self._add(self._meta_num.setdefault(attribute, {}),
                      float(value), obj)

    def _unindex_meta(self, obj: "DataObject", attribute: str,
                      value: MetadataValue) -> None:
        self._discard(self._meta_exists, attribute, obj)
        by_str = self._meta_str.get(attribute)
        if by_str is not None:
            self._discard(by_str, str(value), obj)
            if not by_str:
                del self._meta_str[attribute]
        if _is_numeric(value):
            by_num = self._meta_num.get(attribute)
            if by_num is not None:
                self._discard(by_num, float(value), obj)
                if not by_num:
                    del self._meta_num[attribute]

    @staticmethod
    def _add(index: Dict, key, obj: "DataObject") -> None:
        posting = index.get(key)
        if posting is None:
            posting = index[key] = _Posting()
            posting.view = None
        posting[id(obj)] = obj
        view = posting.view
        if view is not None:
            if view[-1].path < obj.path:
                view.append(obj)
            else:
                posting.view = None

    @staticmethod
    def _discard(index: Dict, key, obj: "DataObject") -> None:
        posting = index.get(key)
        if posting is None:
            return
        if posting.pop(id(obj), None) is not None:
            posting.view = None
        if not posting:
            del index[key]

    # -- lookups (candidate supersets) ---------------------------------------

    def lookup_guid(self, guid: str) -> Optional["DataObject"]:
        """The indexed object with ``guid``, if any."""
        return self._by_guid.get(guid)

    def guids(self) -> List[str]:
        """Every indexed guid, in registration order.

        This is the membership view a per-zone Local Replica Catalog
        (:mod:`repro.federation.rls`) digests and publishes; kept in
        registration order so digest construction is deterministic.
        """
        return list(self._by_guid)

    def count_meta_eq(self, attribute: str, value: MetadataValue) -> int:
        """Upper bound on objects whose ``attribute`` equals ``value``."""
        count = len(self._meta_str.get(attribute, {}).get(str(value), ()))
        if _is_numeric(value):
            count += len(self._meta_num.get(attribute, {}).get(float(value), ()))
        return count

    def candidates_meta_eq(self, attribute: str,
                           value: MetadataValue) -> List["DataObject"]:
        """Candidate objects whose ``attribute`` may equal ``value``, in
        path order.

        A superset under the query language's comparison rules (numeric
        compare when both sides are numeric, string compare otherwise);
        exact for a string ``value``. The list may be the posting's own
        view: read it, never mutate it.
        """
        by_str = _in_path_order(
            self._meta_str.get(attribute, {}).get(str(value)))
        if not _is_numeric(value):
            return by_str
        return _union_in_path_order(by_str, _in_path_order(
            self._meta_num.get(attribute, {}).get(float(value))))

    def count_meta_exists(self, attribute: str) -> int:
        """Number of objects carrying ``attribute``."""
        return len(self._meta_exists.get(attribute, ()))

    def candidates_meta_exists(self, attribute: str) -> List["DataObject"]:
        """Objects carrying ``attribute`` (exact), in path order.

        The list is the posting's own view: read it, never mutate it.
        """
        return _in_path_order(self._meta_exists.get(attribute))

    def _size_range(self, bounds: SizeBounds) -> Tuple[int, int]:
        """Index range [lo, hi) of exactly the size keys satisfying every
        ``size <op> value`` bound: the max of the lower ends and the min
        of the upper ends.

        A key is ``(size, guid)``: ``(value, "")`` sorts before every key
        of size ``value`` and ``(value, _AFTER_ANY_GUID)`` after them, so
        ``>`` and ``<`` leave ties out and ``>=``, ``<=`` and ``=`` keep
        them. ``value`` must not be NaN.
        """
        keys = self._size_keys
        lo, hi = 0, len(keys)
        for op_value, value in bounds:
            if op_value == ">":
                lo = max(lo, bisect.bisect_right(keys,
                                                 (value, _AFTER_ANY_GUID)))
            elif op_value == "<":
                hi = min(hi, bisect.bisect_left(keys, (value, "")))
            else:
                if op_value in (">=", "="):
                    lo = max(lo, bisect.bisect_left(keys, (value, "")))
                if op_value in ("<=", "="):
                    hi = min(hi, bisect.bisect_right(
                        keys, (value, _AFTER_ANY_GUID)))
        return lo, max(lo, hi)

    def count_size(self, bounds: SizeBounds) -> int:
        """Number of objects whose size satisfies every bound."""
        lo, hi = self._size_range(bounds)
        return hi - lo

    def candidates_size(self, bounds: SizeBounds) -> List["DataObject"]:
        """The objects whose size satisfies every bound, in size order.

        ``bounds`` is a sequence of ``(op, value)`` pairs, ``op`` one of
        ``=``, ``>``, ``>=``, ``<``, ``<=``: the conjunction of a query's
        numeric ``size`` conditions, answered as one exact range.
        """
        lo, hi = self._size_range(bounds)
        by_guid = self._by_guid
        return [by_guid[guid] for _, guid in self._size_keys[lo:hi]]
