"""The datagrid query language.

DGL execution logic iterates "some set of tasks over collections of files.
The files are used as input data and processed according to a datagrid
query, which could be part of the execution logic itself" (§2.3). This
module defines that query language: conjunctive conditions over a data
object's name, path, size, checksum, and user-defined metadata, evaluated
against a collection subtree.

Queries have both an object form (:class:`Query`) and a compact text form
used inside DGL documents, e.g.::

    name like '*.dat' AND size > 1048576 AND meta:stage = 'raw'
"""

from __future__ import annotations

import bisect
import enum
import fnmatch
import functools
import heapq
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.errors import MetadataError
from repro.grid.namespace import DataObject, LogicalNamespace

__all__ = ["Op", "Condition", "Query", "parse_conditions"]


class Op(enum.Enum):
    """Comparison operators."""

    EQ = "="
    NE = "!="
    GT = ">"
    GE = ">="
    LT = "<"
    LE = "<="
    LIKE = "like"          # glob-style pattern on the string form
    CONTAINS = "contains"  # substring on the string form
    EXISTS = "exists"      # the field has a value at all


#: Fields addressable without the ``meta:`` prefix.
_BUILTIN_FIELDS = {"name", "path", "size", "checksum", "guid"}


@dataclass(frozen=True)
class Condition:
    """One conjunct: ``field op value``.

    ``field`` is a builtin (name, path, size, checksum, guid) or
    ``meta:<attribute>`` for user-defined metadata.
    """

    field: str
    op: Op
    value: Union[str, int, float, None] = None

    def __post_init__(self) -> None:
        if not (self.field in _BUILTIN_FIELDS or self.field.startswith("meta:")):
            raise MetadataError(
                f"unknown query field {self.field!r} "
                f"(builtins: {sorted(_BUILTIN_FIELDS)}, or meta:<attr>)")
        if self.op is not Op.EXISTS and self.value is None:
            raise MetadataError(f"operator {self.op.value!r} needs a value")

    def _extract(self, obj: DataObject):
        if self.field == "name":
            return obj.name
        if self.field == "path":
            return obj.path
        if self.field == "size":
            return obj.size
        if self.field == "checksum":
            return obj.checksum
        if self.field == "guid":
            return obj.guid
        attribute = self.field[len("meta:"):]
        return obj.metadata.get(attribute)

    def matches(self, obj: DataObject) -> bool:
        """Evaluate this condition against one data object."""
        actual = self._extract(obj)
        if self.op is Op.EXISTS:
            return actual is not None
        if actual is None:
            return False
        if self.op is Op.LIKE:
            return fnmatch.fnmatchcase(str(actual), str(self.value))
        if self.op is Op.CONTAINS:
            return str(self.value) in str(actual)
        expected = self.value
        # Numeric comparison when both sides are numeric; string otherwise.
        if isinstance(actual, (int, float)) and isinstance(expected, (int, float)):
            left, right = float(actual), float(expected)
        else:
            left, right = str(actual), str(expected)
        if self.op is Op.EQ:
            return left == right
        if self.op is Op.NE:
            return left != right
        if self.op is Op.GT:
            return left > right
        if self.op is Op.GE:
            return left >= right
        if self.op is Op.LT:
            return left < right
        if self.op is Op.LE:
            return left <= right
        raise MetadataError(f"unhandled operator {self.op!r}")


#: Operators the size index can bound a candidate range for.
_SIZE_RANGE_OPS = {Op.EQ, Op.GT, Op.GE, Op.LT, Op.LE}

_PATH = operator.attrgetter("path")


def _is_size_bound(condition: Condition) -> bool:
    """True if ``condition`` is answered exactly by the size index: a
    numeric range bound (a NaN bound is left to verification)."""
    value = condition.value
    return (condition.field == "size" and condition.op in _SIZE_RANGE_OPS
            and isinstance(value, (int, float))
            and not isinstance(value, bool) and value == value)


@dataclass
class Query:
    """A conjunctive query over a collection subtree.

    :meth:`run` plans the evaluation against the namespace's
    :class:`~repro.grid.catalog.GridCatalog`. Each conjunct that an index
    can answer (metadata EQ/EXISTS, guid and path EQ) is scored by its
    candidate count, and every numeric ``size`` bound is merged into one
    size-index range scored the same way; evaluation starts from the most
    selective access path. Candidates are verified against the conditions
    the access path does not already guarantee: all of them, unless the
    winner is *exact* (``meta:`` EQ with a string value, ``meta:`` EXISTS,
    or the size range for its bounds), in which case only the rest.
    Every access path but the size range yields its candidates in path
    order, so the scope is one bisected slice and ``limit k`` stops at
    the k-th verified candidate. Results are always identical to a
    brute-force scan (:meth:`run_scan`), just sublinear for selective
    queries.
    """

    collection: str = "/"
    conditions: List[Condition] = field(default_factory=list)
    recursive: bool = True
    limit: Optional[int] = None

    def matches(self, obj: DataObject) -> bool:
        """True if every condition holds."""
        for condition in self.conditions:
            if not condition.matches(obj):
                return False
        return True

    def run(self, namespace: LogicalNamespace,
            telemetry=None) -> List[DataObject]:
        """Evaluate against ``namespace``, in deterministic path order.

        ``telemetry`` is the session that counts the access path and the
        candidates examined (None counts nothing); callers pass the
        environment's current session.
        """
        scope = namespace.resolve_collection(self.collection)
        if not self.recursive:
            children = [c for c in scope.children()
                        if isinstance(c, DataObject)]
            if telemetry is not None:
                self._account(telemetry, "children", len(children))
            return self._first_by_path(filter(self.matches, children))

        plan = self._plan(namespace)
        if plan is not None:
            candidates, residual, in_path_order = plan
            if in_path_order:
                return self._first_in_scope(candidates, residual, scope.path,
                                            telemetry)
            scope_path = scope.path
            if scope_path == "/":
                in_scope = candidates
            else:
                prefix = scope_path + "/"
                in_scope = [o for o in candidates if o.path.startswith(prefix)]
            if telemetry is not None:
                self._account(telemetry, "index", len(in_scope))
            if residual is not None:
                in_scope = filter(residual.matches, in_scope)
            return self._first_by_path(in_scope)

        # Scan path: path-ordered traversal allows a true early exit once
        # ``limit`` matches are in hand.
        limit = self.limit
        results = []
        examined = 0
        for obj in namespace.iter_objects_in_path_order(self.collection):
            if limit is not None and len(results) >= limit:
                break
            examined += 1
            if self.matches(obj):
                results.append(obj)
        if telemetry is not None:
            self._account(telemetry, "scan", examined)
        return results

    def _first_in_scope(self, candidates: List[DataObject],
                        residual: Optional["Query"], scope_path: str,
                        telemetry) -> List[DataObject]:
        """The answer from path-ordered ``candidates``.

        The objects under ``scope_path`` are one contiguous run: every
        path from ``scope/`` up to, not including, ``scope0`` (``0``
        follows ``/``) starts with ``scope/``. Bisect finds the run; the
        first :attr:`limit` entries that pass ``residual`` are the
        answer, so an exact access path with a limit costs O(log n + k).
        """
        lo, hi = 0, len(candidates)
        if scope_path != "/":
            lo = bisect.bisect_left(candidates, scope_path + "/", key=_PATH)
            hi = bisect.bisect_left(candidates, scope_path + "0", lo,
                                    key=_PATH)
        if telemetry is not None:
            self._account(telemetry, "index", hi - lo)
        limit = self.limit
        if limit is not None and limit >= 0:
            if residual is None:
                return candidates[lo:min(hi, lo + limit)]
            return list(itertools.islice(
                filter(residual.matches,
                       map(candidates.__getitem__, range(lo, hi))), limit))
        results = candidates[lo:hi]
        if residual is not None:
            results = list(filter(residual.matches, results))
        return results if limit is None else results[:limit]

    def _first_by_path(self, objects) -> List[DataObject]:
        """``objects`` in path order, cut to :attr:`limit`.

        A limit takes the ``limit`` smallest paths through a bounded heap
        instead of sorting every match; a negative limit keeps the
        slicing semantics of ``sorted(...)[:limit]``.
        """
        limit = self.limit
        if limit is None or limit < 0:
            results = sorted(objects, key=_PATH)
            return results if limit is None else results[:limit]
        return heapq.nsmallest(limit, objects, key=_PATH)

    @staticmethod
    def _account(telemetry, access_path: str, examined: int) -> None:
        """Record which access path answered a query and at what cost."""
        telemetry.catalog_queries.bound[access_path].inc()
        telemetry.catalog_candidates.inc(examined)

    def run_scan(self, namespace: LogicalNamespace) -> List[DataObject]:
        """Brute-force evaluation (the pre-catalog semantics).

        Kept as the reference implementation: equivalence tests and the
        catalog benchmark compare :meth:`run` against this.
        """
        if self.recursive:
            candidates = namespace.iter_objects(self.collection)
        else:
            parent = namespace.resolve_collection(self.collection)
            candidates = (c for c in parent.children()
                          if isinstance(c, DataObject))
        results = [obj for obj in candidates if self.matches(obj)]
        results.sort(key=lambda o: o.path)
        if self.limit is not None:
            results = results[: self.limit]
        return results

    # -- planning -----------------------------------------------------------

    def _plan(self, namespace: LogicalNamespace):
        """``(candidates, residual, in_path_order)`` from the cheapest
        access path, or None.

        Scores every index-eligible conjunct by its (cheaply counted)
        candidate population, plus one size-index range merged from every
        numeric ``size`` bound, and fetches only the winner. ``residual``
        is the query left to verify on each candidate: None when the
        winner is exact for every condition, a :class:`Query` of the
        other conditions when it is exact for its own, else this query.
        ``in_path_order`` is False only for the size range, whose
        candidates come in size order. Returns None when nothing is
        indexable, sending :meth:`run` down the scan path.
        """
        catalog = getattr(namespace, "catalog", None)
        if catalog is None:
            return None
        best_count: Optional[int] = None
        best_fetch = None
        exact_for: List[int] = []   # conjuncts the winner answers exactly
        size_bounds = []
        size_conjuncts = []
        for index, condition in enumerate(self.conditions):
            if _is_size_bound(condition):
                size_bounds.append((condition.op.value,
                                    float(condition.value)))
                size_conjuncts.append(index)
                continue
            count, fetch, exact = self._access_path(namespace, catalog,
                                                    condition)
            if fetch is None:
                continue
            if best_count is None or count < best_count:
                best_count, best_fetch = count, fetch
                exact_for = [index] if exact else []
        in_path_order = True
        if size_bounds:
            count = catalog.count_size(size_bounds)
            if best_count is None or count < best_count:
                best_fetch = functools.partial(catalog.candidates_size,
                                               size_bounds)
                exact_for = size_conjuncts
                in_path_order = False
        if best_fetch is None:
            return None
        if not exact_for:
            return best_fetch(), self, in_path_order
        rest = [condition for index, condition in enumerate(self.conditions)
                if index not in exact_for]
        return (best_fetch(), Query(self.collection, rest) if rest else None,
                in_path_order)

    @staticmethod
    def _access_path(namespace: LogicalNamespace, catalog, condition):
        """(estimated candidate count, fetch thunk, exact) for one conjunct.

        ``exact`` means the fetched candidates are precisely the objects
        satisfying the conjunct, so it needs no re-verification: the
        string-keyed posting list of ``meta:`` EQ with a ``str`` value
        (the query language compares that case as strings), and the
        ``meta:`` EXISTS set. Every fetch returns its candidates in path
        order.
        """
        field_name, op, value = condition.field, condition.op, condition.value
        if field_name.startswith("meta:"):
            attribute = field_name[len("meta:"):]
            if op is Op.EQ:
                return (catalog.count_meta_eq(attribute, value),
                        lambda: catalog.candidates_meta_eq(attribute, value),
                        isinstance(value, str))
            # Every other operator still requires the attribute to be
            # present, so the EXISTS set bounds its candidates.
            return (catalog.count_meta_exists(attribute),
                    lambda: catalog.candidates_meta_exists(attribute),
                    op is Op.EXISTS)
        if field_name == "guid" and op is Op.EQ:
            def fetch_guid():
                obj = catalog.lookup_guid(str(value))
                return [obj] if obj is not None else []
            found = catalog.lookup_guid(str(value))
            return (1 if found is not None else 0, fetch_guid, False)
        if field_name == "path" and op is Op.EQ and isinstance(value, str):
            def fetch_path():
                node = namespace.try_resolve(str(value))
                return [node] if isinstance(node, DataObject) else []
            return (1, fetch_path, False)
        return (None, None, False)


# --------------------------------------------------------------------------
# Text form
# --------------------------------------------------------------------------

_CLAUSE_RE = re.compile(
    r"""^\s*(?P<field>[A-Za-z_][\w:.-]*)\s*
        (?P<op>!=|>=|<=|=|>|<|\blike\b|\bcontains\b|\bexists\b)\s*
        (?P<value>.*?)\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def _parse_value(text: str) -> Union[str, int, float]:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_conjuncts(text: str) -> List[str]:
    """Split on ``AND`` keywords, ignoring any inside quoted values.

    A bare ``re.split(r"\\bAND\\b")`` would shear a clause like
    ``meta:note = 'R AND D'`` in half; this scanner tracks single- and
    double-quote state so only top-level connectives split.
    """
    clauses: List[str] = []
    quote: Optional[str] = None
    start = index = 0
    upper = text.upper()
    while index < len(text):
        char = text[index]
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif (upper.startswith("AND", index)
              and (index == 0 or not (text[index - 1].isalnum()
                                      or text[index - 1] == "_"))
              and (index + 3 >= len(text)
                   or not (text[index + 3].isalnum()
                           or text[index + 3] == "_"))):
            clauses.append(text[start:index])
            index += 3
            start = index
            continue
        index += 1
    clauses.append(text[start:])
    return clauses


def parse_conditions(text: str) -> List[Condition]:
    """Parse the compact text form: clauses joined with ``AND``.

    >>> parse_conditions("size > 100 AND meta:stage = 'raw'")
    ... # doctest: +ELLIPSIS
    [Condition(...), Condition(...)]
    """
    conditions: List[Condition] = []
    if not text or not text.strip():
        return conditions
    for clause in _split_conjuncts(text):
        clause = clause.strip()
        if not clause:
            raise MetadataError(f"empty clause in query {text!r}")
        match = _CLAUSE_RE.match(clause)
        if match is None:
            raise MetadataError(f"cannot parse query clause {clause!r}")
        op_text = match.group("op").lower()
        op = Op(op_text) if op_text in ("=", "!=", ">", ">=", "<", "<=") else Op[op_text.upper()]
        value_text = match.group("value")
        if op is Op.EXISTS:
            if value_text:
                raise MetadataError(f"'exists' takes no value: {clause!r}")
            value = None
        else:
            if not value_text:
                raise MetadataError(f"operator {op.value!r} needs a value: {clause!r}")
            value = _parse_value(value_text)
        conditions.append(Condition(match.group("field"), op, value))
    return conditions
