"""Catalog + query-planner tests: equivalence, invalidation, determinism.

The planner (:meth:`Query.run`) must return byte-identical results to the
brute-force scan (:meth:`Query.run_scan`) on any namespace, including after
moves, removes, metadata updates, and overwrites — the catalog indexes are
only allowed to make it faster, never different.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import NamespaceError
from repro.grid import (
    Condition,
    DataObject,
    LogicalNamespace,
    Op,
    Query,
    Replica,
    User,
    parse_conditions,
)

ALICE = User("alice", "sdsc")

STAGES = ["raw", "cooked", "final"]
TAGS = [1, 2, "2", 2.0, "x"]


def build_random_namespace(seed: int, n_objects: int = 120) -> LogicalNamespace:
    """A namespace with random nesting, metadata, and sizes."""
    rng = random.Random(seed)
    ns = LogicalNamespace()
    collections = ["/"]
    for index in range(8):
        parent = rng.choice(collections)
        path = (parent.rstrip("/") or "") + f"/c{index}"
        ns.create_collection(path, ALICE, 0.0)
        collections.append(path)
    for index in range(n_objects):
        parent = rng.choice(collections)
        path = (parent.rstrip("/") or "") + f"/o{index:04d}.dat"
        obj = ns.create_object(path, rng.randint(0, 5000), ALICE, 0.0)
        if rng.random() < 0.8:
            obj.metadata.set("stage", rng.choice(STAGES))
        if rng.random() < 0.3:
            obj.metadata.set("tag", rng.choice(TAGS))
        if rng.random() < 0.1:
            obj.metadata.set("rare", "yes")
    return ns


def random_query(rng: random.Random, ns: LogicalNamespace) -> Query:
    """A random conjunction over the fields the planner indexes and
    verifies: exact and inexact metadata paths, merged size windows,
    numeric-looking strings (``'2'`` vs ``2``), and unindexed names."""
    sizes = [obj.size for obj in ns.iter_objects("/")] or [0.0]
    low = rng.randint(0, 5000)
    high = low + rng.randint(0, 1500)
    pool = [
        [Condition("meta:stage", Op.EQ, rng.choice(STAGES))],
        [Condition("meta:stage", Op.EXISTS)],
        [Condition("meta:stage", Op.NE, rng.choice(STAGES))],
        [Condition("meta:tag", Op.EQ, rng.choice(TAGS + ["2.0"]))],
        [Condition("meta:tag", Op.NE, rng.choice(TAGS))],
        [Condition("meta:tag", Op.EXISTS)],
        [Condition("meta:rare", Op.EQ, "yes")],
        [Condition("size", Op.GT, rng.randint(0, 5000))],
        [Condition("size", Op.LE, rng.randint(0, 5000))],
        [Condition("size", Op.GT, low), Condition("size", Op.LT, high)],
        [Condition("size", Op.GE, low), Condition("size", Op.LE, high)],
        [Condition("size", Op.EQ, rng.choice(sizes))],
        [Condition("name", Op.LIKE, "*.dat")],
        [Condition("name", Op.CONTAINS, str(rng.randint(0, 9)))],
    ]
    conditions = [condition
                  for clause in rng.sample(pool, k=rng.randint(0, 3))
                  for condition in clause]
    collections = ["/"] + [c.path for c, _, _ in ns.walk("/") if c.path != "/"]
    return Query(collection=rng.choice(collections), conditions=conditions,
                 recursive=rng.random() < 0.9,
                 limit=rng.choice([None, None, 0, 1, 5]))


def assert_equivalent(query: Query, ns: LogicalNamespace) -> None:
    planned = [o.path for o in query.run(ns)]
    scanned = [o.path for o in query.run_scan(ns)]
    assert planned == scanned, (
        f"planner diverged from scan for {query}: {planned} != {scanned}")


# -- planner vs scan equivalence ----------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_planner_equals_scan_on_random_namespaces(seed):
    ns = build_random_namespace(seed)
    rng = random.Random(1000 + seed)
    for _ in range(40):
        assert_equivalent(random_query(rng, ns), ns)


MUTATIONS = ["move", "remove", "meta_set", "meta_del", "tag_set", "resize",
             "move_collection"]


def mutate(ns: LogicalNamespace, rng: random.Random, action: str,
           round_number: int) -> None:
    """Apply one namespace mutation the catalog must track."""
    objects = list(ns.iter_objects("/"))
    if action == "move" and objects:
        obj = rng.choice(objects)
        dst = f"/c0/moved-{round_number}.dat"
        if not ns.exists(dst) and ns.exists("/c0"):
            ns.move(obj.path, dst)
    elif action == "remove" and objects:
        ns.remove(rng.choice(objects).path)
    elif action == "meta_set" and objects:
        rng.choice(objects).metadata.set("stage", rng.choice(STAGES))
    elif action == "meta_del" and objects:
        rng.choice(objects).metadata.remove("stage")
    elif action == "tag_set" and objects:
        rng.choice(objects).metadata.set("tag", rng.choice(TAGS))
    elif action == "resize" and objects:
        rng.choice(objects).size = rng.randint(0, 5000)
    elif action == "move_collection":
        subtrees = [c.path for c, _, _ in ns.walk("/")
                    if c.path.count("/") == 1 and c.path != "/"]
        if subtrees:
            src = rng.choice(subtrees)
            dst = f"/moved-{round_number}"
            if not ns.exists(dst):
                ns.move(src, dst)


@pytest.mark.parametrize("seed", range(4))
def test_planner_equals_scan_after_mutations(seed):
    ns = build_random_namespace(seed)
    rng = random.Random(2000 + seed)
    for round_number in range(12):
        mutate(ns, rng, rng.choice(MUTATIONS), round_number)
        for _ in range(8):
            assert_equivalent(random_query(rng, ns), ns)


@settings(max_examples=40, deadline=None)
@given(namespace_seed=st.integers(0, 2**16),
       steps=st.lists(st.tuples(st.sampled_from(MUTATIONS + ["query"]),
                                st.integers(0, 2**16)),
                      min_size=1, max_size=16))
def test_planner_equals_scan_under_interleaved_mutations(namespace_seed,
                                                         steps):
    ns = build_random_namespace(namespace_seed, n_objects=60)
    for round_number, (action, seed) in enumerate(steps):
        rng = random.Random(seed)
        if action == "query":
            for _ in range(3):
                assert_equivalent(random_query(rng, ns), ns)
        else:
            mutate(ns, rng, action, round_number)
    assert_equivalent(random_query(random.Random(namespace_seed), ns), ns)


# -- path-ordered posting views -----------------------------------------------
#
# Postings keep a path-ordered view that in-order inserts extend and any
# other write drops. The property below reads every view between writes,
# so a write that should drop a view meets one, and compares the planner
# with the scan in sibling scopes that share a prefix ("/a" must not see
# "/a-b", "/a0" or "/ab"), with limits of every sign, with and without a
# residual, with size bounds that tie object sizes (int and float), and
# with numeric equality merged from both keyings.

SIBLING_SCOPES = ["/a", "/a-b", "/a0", "/ab", "/a/x"]
VIEW_SIZES = [0, 1, 2, 2.0, 2.5, 3, 7]
VIEW_TAGS = [1, 2, "2", 2.0, "2.0", 3.5, "x"]


def sibling_namespace() -> LogicalNamespace:
    ns = LogicalNamespace()
    for path in ("/a/x", "/a-b", "/a0", "/ab"):
        ns.create_collection(path, ALICE, 0.0, parents=True)
    return ns


def read_every_view(ns: LogicalNamespace) -> None:
    """Read (so build) every posting's view and check it against the
    objects themselves: exactly the members, in path order."""
    catalog = ns.catalog
    objects = sorted(ns.iter_objects("/"), key=lambda o: o.path)
    for attribute in ("stage", "tag"):
        holders = [o for o in objects
                   if o.metadata.get(attribute) is not None]
        assert catalog.candidates_meta_exists(attribute) == holders
        for value in {str(o.metadata.get(attribute)) for o in holders}:
            assert catalog.candidates_meta_eq(attribute, value) == [
                o for o in holders
                if str(o.metadata.get(attribute)) == value]
    for value in VIEW_TAGS:
        catalog.candidates_meta_eq("tag", value)


def apply_view_write(ns: LogicalNamespace, write) -> None:
    """One namespace write; object choices index the live objects."""
    objects = sorted(ns.iter_objects("/"), key=lambda o: o.path)
    kind, pick, scope, number, size, value = write
    target = objects[pick % len(objects)] if objects else None
    if kind == "create":
        path = f"{scope}/o{number:02d}.dat"
        if ns.exists(scope) and not ns.exists(path):
            obj = ns.create_object(path, size, ALICE, 0.0)
            if value is not None:
                obj.metadata.set("tag", value)
            obj.metadata.set("stage", STAGES[number % len(STAGES)])
    elif kind == "move_collection":
        src, dst = (("/a/x", "/ab/x") if ns.exists("/a/x")
                    else ("/ab/x", "/a/x"))
        ns.move(src, dst)
    elif target is None:
        return
    elif kind == "move":
        path = f"{scope}/m{number:02d}.dat"
        if ns.exists(scope) and not ns.exists(path):
            ns.move(target.path, path)
    elif kind == "remove":
        ns.remove(target.path)
    elif kind == "stage":
        if value is None:
            target.metadata.remove("stage")
        else:
            target.metadata.set("stage", STAGES[number % len(STAGES)])
    elif kind == "tag":
        if value is None:
            target.metadata.remove("tag")
        else:
            target.metadata.set("tag", value)
    elif kind == "resize":
        target.size = size


VIEW_WRITES = st.tuples(
    st.sampled_from(["create", "create", "create", "move", "remove",
                     "stage", "tag", "resize", "move_collection"]),
    st.integers(0, 2**16), st.sampled_from(SIBLING_SCOPES),
    st.integers(0, 40), st.sampled_from(VIEW_SIZES),
    st.sampled_from(VIEW_TAGS + [None]))

VIEW_ACCESS = st.one_of(
    st.sampled_from(STAGES).map(
        lambda stage: [Condition("meta:stage", Op.EQ, stage)]),
    st.sampled_from(VIEW_TAGS).map(
        lambda tag: [Condition("meta:tag", Op.EQ, tag)]),
    st.sampled_from([[Condition("meta:stage", Op.EXISTS)],
                     [Condition("meta:tag", Op.EXISTS)]]),
    st.lists(st.builds(Condition, st.just("size"),
                       st.sampled_from([Op.GT, Op.GE, Op.LT, Op.LE, Op.EQ]),
                       st.sampled_from(VIEW_SIZES)),
             min_size=1, max_size=2))

VIEW_RESIDUALS = st.sampled_from([
    [], [Condition("name", Op.LIKE, "*1*")],
    [Condition("meta:stage", Op.NE, "raw")],
    [Condition("meta:tag", Op.EXISTS)]])

VIEW_QUERIES = st.tuples(
    st.sampled_from(["/"] + SIBLING_SCOPES + ["/ab/x"]), VIEW_ACCESS,
    VIEW_RESIDUALS, st.sampled_from([None, 0, 1, 3, -1, -2]))


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(VIEW_WRITES, VIEW_QUERIES),
                      min_size=1, max_size=30))
def test_path_ordered_views_equal_scan_between_writes(steps):
    ns = sibling_namespace()
    for write, (scope, access, residual, limit) in steps:
        apply_view_write(ns, write)
        read_every_view(ns)
        if not ns.exists(scope):
            continue
        assert_equivalent(Query(collection=scope,
                                conditions=access + residual,
                                limit=limit), ns)


def test_an_in_order_insert_extends_the_view_and_others_drop_it():
    ns = sibling_namespace()
    first = ns.create_object("/a/o01.dat", 1, ALICE, 0.0)
    first.metadata.set("stage", "raw")
    posting = ns.catalog._meta_exists["stage"]
    view = ns.catalog.candidates_meta_exists("stage")
    assert posting.view is view == [first]
    ns.create_object("/a/o02.dat", 1, ALICE, 0.0).metadata.set("stage", "raw")
    assert posting.view is view                    # extended in place
    assert [o.name for o in view] == ["o01.dat", "o02.dat"]
    ns.create_object("/a/o00.dat", 1, ALICE, 0.0).metadata.set("stage", "x")
    assert posting.view is None                    # out of path order
    view = ns.catalog.candidates_meta_exists("stage")
    assert [o.name for o in view] == ["o00.dat", "o01.dat", "o02.dat"]
    ns.remove("/a/o02.dat")
    assert posting.view is None                    # a removal


# -- exact access paths -------------------------------------------------------

@pytest.fixture
def counted_matches(monkeypatch):
    """Count every ``Query.matches`` call (one per candidate verified)."""
    calls = []
    original = Query.matches

    def counting(self, obj):
        calls.append(obj)
        return original(self, obj)

    monkeypatch.setattr(Query, "matches", counting)
    return calls


@pytest.mark.parametrize("condition", [
    Condition("meta:stage", Op.EQ, "raw"),
    Condition("meta:stage", Op.EXISTS),
], ids=["eq-str", "exists"])
@pytest.mark.parametrize("limit", [None, 3])
def test_single_exact_conjunct_verifies_nothing(counted_matches, condition,
                                                limit):
    ns = build_random_namespace(7)
    query = Query(conditions=[condition], limit=limit)
    results = query.run(ns)
    assert counted_matches == []
    assert results
    assert [o.path for o in results] == [o.path for o in query.run_scan(ns)]


def test_exact_winner_verifies_only_the_residual(counted_matches):
    ns = build_random_namespace(7)
    rare = Condition("meta:rare", Op.EQ, "yes")
    query = Query(conditions=[Condition("name", Op.LIKE, "*.dat"), rare])
    planned = query.run(ns)
    # One verification per candidate of the winning (rare) posting list.
    assert len(counted_matches) == ns.catalog.count_meta_eq("rare", "yes")
    assert [o.path for o in planned] == [o.path for o in query.run_scan(ns)]


def test_numeric_eq_candidates_are_verified(counted_matches):
    """A numeric EQ's posting lists are only a superset: a NaN value is
    filed under the string key ``'nan'`` but never compares equal, so
    the planner must verify numeric candidates."""
    ns, a, b = small_namespace()
    a.metadata.set("score", float("nan"))
    b.metadata.set("score", 2)
    query = Query(conditions=[Condition("meta:score", Op.EQ, float("nan"))])
    assert query.run(ns) == []
    assert counted_matches == [a]
    assert query.run_scan(ns) == []


def test_size_bounds_merge_into_one_range():
    ns = build_random_namespace(5)
    window = [Condition("size", Op.GT, 1000), Condition("size", Op.LE, 1400)]
    bounds = [(">", 1000.0), ("<=", 1400.0)]
    inside = [o for o in ns.iter_objects("/") if 1000 < o.size <= 1400]
    # The merged range is exactly the window, not either half-range.
    assert ns.catalog.count_size(bounds) == len(inside)
    assert ns.catalog.count_size([(">", 1400.0), ("<", 1000.0)]) == 0
    assert_equivalent(Query(conditions=window), ns)


@pytest.mark.parametrize("op", [Op.GT, Op.GE, Op.LT, Op.LE, Op.EQ])
@pytest.mark.parametrize("bound", [200, 200.0])
def test_size_ranges_are_exact_so_size_queries_verify_nothing(
        counted_matches, op, bound):
    ns, a, b = small_namespace()
    ns.create_object("/data/raw/c.dat", 200, ALICE, 0.0)   # ties b
    query = Query(conditions=[Condition("size", op, bound)])
    results = query.run(ns)
    assert counted_matches == []
    assert [o.path for o in results] == [o.path for o in query.run_scan(ns)]
    assert ns.catalog.count_size([(op.value, float(bound))]) == len(results)


@pytest.mark.parametrize("size", [float("nan"), -1.0])
def test_a_size_the_index_cannot_order_is_refused(size):
    """A NaN size fails every comparison, so it has no place in the
    sorted size index that answers size bounds without verifying."""
    ns, a, b = small_namespace()
    with pytest.raises(NamespaceError, match="negative or NaN"):
        ns.create_object("/data/raw/c.dat", size, ALICE, 0.0)
    with pytest.raises(NamespaceError, match="negative or NaN"):
        a.size = size
    assert not ns.exists("/data/raw/c.dat")
    assert a.size == 100.0
    assert_equivalent(Query(conditions=[Condition("size", Op.GT, 50)]), ns)


# -- targeted invalidation cases ----------------------------------------------

def small_namespace():
    ns = LogicalNamespace()
    ns.create_collection("/data/raw", ALICE, 0.0, parents=True)
    a = ns.create_object("/data/raw/a.dat", 100.0, ALICE, 0.0)
    b = ns.create_object("/data/raw/b.dat", 200.0, ALICE, 0.0)
    a.metadata.set("stage", "raw")
    b.metadata.set("stage", "raw")
    return ns, a, b


def stage_query(collection="/"):
    return Query(collection=collection,
                 conditions=[Condition("meta:stage", Op.EQ, "raw")])


def test_index_updates_on_metadata_change():
    ns, a, b = small_namespace()
    assert len(stage_query().run(ns)) == 2
    a.metadata.set("stage", "final")
    assert [o.path for o in stage_query().run(ns)] == ["/data/raw/b.dat"]
    a.metadata.remove("stage")
    exists = Query(conditions=[Condition("meta:stage", Op.EXISTS)])
    assert [o.path for o in exists.run(ns)] == ["/data/raw/b.dat"]


def test_index_updates_on_remove_and_move():
    ns, a, b = small_namespace()
    ns.remove("/data/raw/a.dat")
    assert [o.path for o in stage_query().run(ns)] == ["/data/raw/b.dat"]
    ns.move("/data/raw", "/archive")
    results = stage_query().run(ns)
    assert [o.path for o in results] == ["/archive/b.dat"]
    # Scoping honors the *new* subtree.
    assert stage_query("/data").run(ns) == []
    assert [o.path for o in stage_query("/archive").run(ns)] == ["/archive/b.dat"]


def test_moved_subtree_paths_are_recomputed():
    ns, a, b = small_namespace()
    assert a.path == "/data/raw/a.dat"
    ns.move("/data/raw", "/data/cooked")
    assert a.path == "/data/cooked/a.dat"
    assert b.path == "/data/cooked/b.dat"
    ns.move("/data", "/top")
    assert a.path == "/top/cooked/a.dat"


def test_size_index_follows_overwrite():
    ns, a, b = small_namespace()
    big = Query(conditions=[Condition("size", Op.GT, 150)])
    assert [o.path for o in big.run(ns)] == ["/data/raw/b.dat"]
    a.size = 500.0
    assert [o.path for o in big.run(ns)] == ["/data/raw/a.dat",
                                             "/data/raw/b.dat"]
    assert_equivalent(big, ns)


def test_guid_lookup_and_query():
    ns, a, b = small_namespace()
    assert ns.lookup_guid(a.guid) is a
    assert ns.lookup_guid("guid-nonexistent") is None
    by_guid = Query(conditions=[Condition("guid", Op.EQ, b.guid)])
    assert by_guid.run(ns) == [b]
    ns.remove("/data/raw/b.dat")
    assert ns.lookup_guid(b.guid) is None
    assert by_guid.run(ns) == []


def test_limit_early_exit_matches_scan():
    ns = build_random_namespace(99, n_objects=60)
    unindexed = Query(collection="/",
                      conditions=[Condition("name", Op.LIKE, "*.dat")],
                      limit=5)
    assert_equivalent(unindexed, ns)
    indexed = Query(collection="/",
                    conditions=[Condition("meta:stage", Op.EQ, "raw")],
                    limit=3)
    assert_equivalent(indexed, ns)


def test_detached_subtree_is_not_queryable():
    ns, a, b = small_namespace()
    detached = ns.remove("/data/raw/a.dat")
    assert detached is a
    assert len(stage_query().run(ns)) == 1
    # Mutating a detached object's metadata must not corrupt the catalog.
    a.metadata.set("stage", "raw")
    assert len(stage_query().run(ns)) == 1
    assert_equivalent(stage_query(), ns)


# -- deterministic identities -------------------------------------------------

def build_twice(builder):
    def run():
        ns = LogicalNamespace()
        return builder(ns)
    return run(), run()


def test_guids_are_namespace_scoped_and_repeatable():
    def builder(ns):
        ns.create_collection("/d", ALICE, 0.0)
        return [ns.create_object(f"/d/o{i}", 1.0, ALICE, 0.0).guid
                for i in range(5)]
    first, second = build_twice(builder)
    assert first == second
    assert first == [f"guid-{i:08d}" for i in range(1, 6)]


def test_replica_numbers_are_namespace_scoped():
    def builder(ns):
        ns.create_collection("/d", ALICE, 0.0)
        obj = ns.create_object("/d/o", 1.0, ALICE, 0.0)
        ids = []
        for name in ("disk-1", "disk-2"):
            replica = Replica(obj.guid, "lr", "sdsc", name, 0.0,
                              replica_number=ns.next_replica_number())
            obj.add_replica(replica)
            ids.append(replica.allocation_id)
        return ids
    first, second = build_twice(builder)
    assert first == second
    assert first == ["guid-00000001#1", "guid-00000001#2"]


def test_standalone_guids_cannot_collide_with_namespace_guids():
    standalone = DataObject("f", 1.0, ALICE, 0.0)
    ns = LogicalNamespace()
    ns.create_collection("/d", ALICE, 0.0)
    managed = ns.create_object("/d/o", 1.0, ALICE, 0.0)
    assert standalone.guid.startswith("guid-local-")
    assert managed.guid != standalone.guid


# -- parser regression --------------------------------------------------------

def test_parse_conditions_quote_aware_and():
    conds = parse_conditions("meta:note = 'R AND D' AND size > 5")
    assert conds == [Condition("meta:note", Op.EQ, "R AND D"),
                     Condition("size", Op.GT, 5)]


def test_parse_conditions_double_quoted_and():
    conds = parse_conditions('meta:note = "A AND B AND C"')
    assert conds == [Condition("meta:note", Op.EQ, "A AND B AND C")]


def test_parse_conditions_and_inside_word_not_split():
    (cond,) = parse_conditions("meta:brand = OPERAND")
    assert cond == Condition("meta:brand", Op.EQ, "OPERAND")
