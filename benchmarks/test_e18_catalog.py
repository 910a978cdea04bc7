"""E18: MCAT-style catalog — indexed queries vs namespace scans.

The SRB's MCAT answers namespace/metadata queries from indexes instead of
walking collections. This experiment measures the reproduction's catalog
(`repro.grid.catalog.GridCatalog` + the `Query.run` planner) against the
brute-force subtree scan (`Query.run_scan`) at growing namespace sizes,
for a selective metadata-equality query, an attribute-existence query,
a size range, a two-sided size window, and an unselective
metadata-equality query with ``limit 10``. The selective query and the
limited one must each be at least 10x faster than the scan by 10k
objects. The size index answers its bounds exactly, so the two size
queries must verify no candidate at all (``Query.matches`` calls, a
count that does not depend on the host). Each size's namespace build
time is recorded too, so the catalog's write-path cost stays visible;
it is not gated.

Results land in ``BENCH_catalog.json`` at the repo root.

The smoke shape skips the 100k-object namespace.
"""

import time

from _helpers import REPO_ROOT, merge_results, shape, timed
from repro.grid import Condition, LogicalNamespace, Op, Query, User

SIZES = shape(full=[1_000, 10_000, 100_000], smoke=[1_000, 10_000])
RARE_EVERY = 100          # 1% of objects carry the selective attribute
N_COLLECTIONS = 64

_RESULT_PATH = REPO_ROOT / "BENCH_catalog.json"


def build_namespace(n_objects: int) -> LogicalNamespace:
    owner = User("curator", "sdsc")
    ns = LogicalNamespace()
    for index in range(N_COLLECTIONS):
        ns.create_collection(f"/data/c{index:03d}", owner, 0.0, parents=True)
    for index in range(n_objects):
        path = f"/data/c{index % N_COLLECTIONS:03d}/obj-{index:07d}.dat"
        obj = ns.create_object(path, float(index % 4096), owner, 0.0)
        obj.metadata.set("stage", ("raw", "cooked", "final")[index % 3])
        if index % RARE_EVERY == 0:
            obj.metadata.set("flagged", "yes")
    return ns


QUERIES = [
    ("meta-eq (selective)",
     Query(conditions=[Condition("meta:flagged", Op.EQ, "yes")])),
    ("meta-exists",
     Query(conditions=[Condition("meta:flagged", Op.EXISTS)])),
    ("size-range",
     Query(conditions=[Condition("size", Op.LT, 40)])),
    ("size-window",
     Query(conditions=[Condition("size", Op.GT, 500),
                       Condition("size", Op.LT, 540)])),
    ("meta-eq limit-10",
     Query(conditions=[Condition("meta:stage", Op.EQ, "raw")], limit=10)),
]

#: Rows gated at 10k objects: indexed must beat the scan by this factor.
GATES_AT_10K = {"meta-eq (selective)": 10.0, "meta-eq limit-10": 10.0}

#: Rows whose access path answers every conjunct: at every size they
#: must verify no candidate.
VERIFY_NOTHING = {"size-range", "size-window"}


def verified_by(query: Query, ns: LogicalNamespace, monkeypatch) -> int:
    """Candidates one planned run of ``query`` verifies (``matches``
    calls on the query or its residual)."""
    calls = 0
    matches = Query.matches

    def counting(self, obj):
        nonlocal calls
        calls += 1
        return matches(self, obj)

    with monkeypatch.context() as patch:
        patch.setattr(Query, "matches", counting)
        query.run(ns)
    return calls


def test_e18_catalog_vs_scan(benchmark, experiment, monkeypatch):
    report = experiment(
        "E18", "MCAT-style catalog: indexed queries vs namespace scan",
        header=["objects", "query", "matches", "verified", "indexed_ms",
                "scan_ms", "speedup"],
        expectation="selective indexed queries are >=10x faster than a "
                    "full scan by 10k objects, and the gap widens with "
                    "namespace size; size queries verify nothing")
    rows = []
    builds = []
    speedups_at_10k = {}
    for n_objects in SIZES:
        start = time.perf_counter()
        ns = build_namespace(n_objects)
        build_s = time.perf_counter() - start
        builds.append({"objects": n_objects, "build_s": round(build_s, 4)})
        # Best of N filters scheduler noise; fewer repeats at the large
        # end, where the scan alone costs ~100ms+.
        repeats = 5 if n_objects <= 10_000 else 3
        for label, query in QUERIES:
            indexed = query.run(ns)
            scanned = query.run_scan(ns)
            assert [o.path for o in indexed] == [o.path for o in scanned]
            verified = verified_by(query, ns, monkeypatch)
            if label in VERIFY_NOTHING:
                assert verified == 0, (
                    f"{label} verified {verified} candidates at "
                    f"{n_objects} objects (its size range is exact)")
            indexed_s = min(timed(lambda: query.run(ns))
                            for _ in range(repeats))
            scan_s = min(timed(lambda: query.run_scan(ns))
                         for _ in range(repeats))
            speedup = scan_s / indexed_s if indexed_s > 0 else float("inf")
            report.row(n_objects, label, len(indexed), verified,
                       indexed_s * 1e3, scan_s * 1e3, speedup)
            rows.append({
                "objects": n_objects,
                "query": label,
                "matches": len(indexed),
                "verified": verified,
                "indexed_ms": round(indexed_s * 1e3, 4),
                "scan_ms": round(scan_s * 1e3, 4),
                "speedup": round(speedup, 1),
            })
            if n_objects == 10_000 and label in GATES_AT_10K:
                speedups_at_10k[label] = speedup

    for label, speedup in speedups_at_10k.items():
        gate = GATES_AT_10K[label]
        assert speedup >= gate, (
            f"{label} indexed query only {speedup:.1f}x faster than scan "
            f"at 10k objects (needs >={gate:g}x)")
    if speedups_at_10k:
        benchmark.extra_info["speedup_at_10k"] = round(
            speedups_at_10k["meta-eq (selective)"], 1)
    report.conclusion = (
        "catalog answers selective queries in near-constant time while "
        "scan cost grows linearly with namespace size")

    merge_results(_RESULT_PATH, experiment="E18",
                  title="catalog indexed queries vs namespace scan",
                  sizes=SIZES, rare_every=RARE_EVERY, rows=rows,
                  builds=builds)

    ns = build_namespace(1_000)
    query = QUERIES[0][1]
    benchmark.pedantic(lambda: query.run(ns), rounds=10, iterations=5)
