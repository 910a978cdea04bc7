"""E25: federated multi-zone datagrid — index scaling & chaos survival.

The federation subsystem (:mod:`repro.federation`) makes two measurable
claims and one safety claim:

* **sharded-index scaling** — a two-tier RLS lookup touches exactly one
  shard (``crc32(guid) % n_shards``) no matter how large the federation
  grows, so its per-lookup cost stays ~flat from 10k to 1M objects while
  the single-flat-catalog baseline's scan cost grows linearly. At 1M
  objects the sharded lookup must be at least **10x** faster, with the
  one-shard accounting asserted on every answer.
* **stale but never wrong** — every locate answer is re-verified against
  the authoritative per-zone catalogs; false positives cost a wasted
  query, never a phantom location.
* **chaos survival** — a ≥10-seed sweep of cross-zone copy workloads
  under zone outages and bridge degradations must hold every federation
  invariant (no lost replicas, zero wrong RLS answers, terminal copy
  outcomes, post-flush convergence), and the sweep fingerprint must
  match ``federation_chaos_baseline.sha256`` — cross-zone chaos is
  seeded and bit-reproducible.

Results land in ``BENCH_federation.json`` at the repo root.

CI smoke knobs (all optional): ``FEDERATION_BENCH_SIZES`` (comma list)
shrinks the index scaling sweep, ``FEDERATION_CHAOS_SEEDS`` shrinks the
chaos sweep — the hard gates only fire at the default shapes.
"""

import os
import time
from pathlib import Path

from _helpers import check_pinned_sweep, merge_results
from repro.federation import (
    FlatReplicaDirectory,
    LocalReplicaCatalog,
    ReplicaLocation,
    ReplicaLocationService,
    default_federation_seeds,
    run_federation_sweep,
    sweep_fingerprint,
)

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_PATH = _REPO_ROOT / "BENCH_federation.json"

SPEEDUP_GATE = 10.0
DEFAULT_SIZES = "10000,100000,1000000"
N_ZONES = 8
N_SHARDS = 64
#: Sharded probe count per size; the flat baseline probe count shrinks
#: with size so its total scan work stays bounded (the per-lookup mean
#: is what's compared).
SHARDED_PROBES = 200
FLAT_SCAN_BUDGET = 2_000_000
#: The sharded per-lookup cost may grow at most this factor from the
#: smallest to the largest federation to count as ~flat.
FLATNESS_TOLERANCE = 3.0


def _sizes() -> list:
    raw = os.environ.get("FEDERATION_BENCH_SIZES", "") or DEFAULT_SIZES
    return [int(x) for x in raw.split(",") if x.strip()]


def _build_federation_index(total_objects: int):
    """A synthetic federation of ``N_ZONES`` zones holding
    ``total_objects`` guids in all, both as a sharded RLS and as the
    flat single-catalog baseline over the same entries."""
    service = ReplicaLocationService(n_shards=N_SHARDS)
    flat = FlatReplicaDirectory()
    per_zone = total_objects // N_ZONES
    guids = []
    for z in range(N_ZONES):
        zone = f"z{z}"
        lrc = LocalReplicaCatalog(zone)
        service.add_zone(lrc, publish=False)
        home = (ReplicaLocation(zone, f"{zone}-d0", f"{zone}-d0-disk",
                                f"{zone}-d0-disk-1"),)
        for i in range(per_zone):
            guid = f"guid-{zone}-{i:08d}"
            lrc._static[guid] = home   # bulk load: skip listener dispatch
            flat.add(guid, home)
            guids.append(guid)
        service.publish_zone(zone)
    return service, flat, guids


def _probe_guids(guids: list, count: int) -> list:
    step = max(1, len(guids) // count)
    return guids[::step][:count]


def _measure(locate, probes: list) -> float:
    """Mean wall seconds per lookup."""
    start = time.perf_counter()
    for guid in probes:
        locate(guid)
    return (time.perf_counter() - start) / len(probes)


def test_e25_sharded_rls_lookup_scales_flat(benchmark, experiment):
    sizes = _sizes()
    full_size = sizes == [int(x) for x in DEFAULT_SIZES.split(",")]

    report = experiment(
        "E25a", "two-tier RLS vs flat catalog: lookup cost vs federation "
        "size",
        header=["objects", "sharded_us", "flat_us", "speedup",
                "index_kb", "fp"],
        expectation=f"sharded lookup ~flat with size and >= "
                    f"{SPEEDUP_GATE:.0f}x the flat scan at the largest "
                    "federation")

    rows = []
    for total in sizes:
        service, flat, guids = _build_federation_index(total)
        probes = _probe_guids(guids, SHARDED_PROBES)
        # Shard-touch accounting: every answer comes from exactly one
        # shard, checks at most one digest per zone, and is verified.
        for guid in probes[:32]:
            result = service.locate(guid)
            assert result.found, guid
            assert result.shards_touched == 1
            assert result.digests_checked <= N_ZONES
            assert all(location.zone == guid.split("-")[1]
                       for location in result.locations)
        assert service.shards_touched == service.lookups

        sharded_s = _measure(service.locate, probes)
        flat_probes = _probe_guids(
            guids, max(2, FLAT_SCAN_BUDGET // max(total, 1)))
        flat_s = _measure(flat.locate, flat_probes)
        speedup = flat_s / sharded_s
        rows.append({
            "objects": total,
            "zones": N_ZONES,
            "n_shards": N_SHARDS,
            "sharded_us": round(sharded_s * 1e6, 3),
            "flat_us": round(flat_s * 1e6, 3),
            "speedup": round(speedup, 2),
            "index_bytes": service.index.size_bytes,
            "false_positives": service.false_positives,
        })
        report.row(total, round(sharded_s * 1e6, 2),
                   round(flat_s * 1e6, 2), round(speedup, 1),
                   round(service.index.size_bytes / 1024, 1),
                   service.false_positives)

    flatness = rows[-1]["sharded_us"] / rows[0]["sharded_us"]
    report.conclusion = (
        f"sharded lookup grows {flatness:.2f}x over a "
        f"{rows[-1]['objects'] // rows[0]['objects']}x size span while "
        f"the flat scan falls behind {rows[-1]['speedup']:.0f}x")

    service, _, guids = _build_federation_index(sizes[0])
    probes = _probe_guids(guids, min(SHARDED_PROBES, 64))
    benchmark.pedantic(lambda: [service.locate(g) for g in probes],
                       rounds=3, iterations=1)
    benchmark.extra_info["speedup_at_max"] = rows[-1]["speedup"]

    merge_results(_RESULT_PATH, rls_scaling={
        "sizes": sizes,
        "sharded_probes": SHARDED_PROBES,
        "rows": rows,
        "flatness": round(flatness, 3),
        "gate": SPEEDUP_GATE,
    })

    if full_size:
        assert rows[-1]["speedup"] >= SPEEDUP_GATE, (
            f"sharded RLS only {rows[-1]['speedup']:.1f}x over the flat "
            f"catalog at {rows[-1]['objects']} objects "
            f"(gate: {SPEEDUP_GATE:.0f}x)")
        assert flatness <= FLATNESS_TOLERANCE, (
            f"sharded lookup cost grew {flatness:.2f}x from "
            f"{rows[0]['objects']} to {rows[-1]['objects']} objects — "
            "not flat")


def test_e25_federation_chaos_sweep_survives_and_is_pinned(benchmark,
                                                           experiment):
    seeds = default_federation_seeds()
    report = experiment(
        "E25b", "cross-zone chaos sweep: survival invariants + pinned "
        "fingerprint",
        header=["seed", "ok", "copies", "failed", "faults", "stale",
                "wrong"],
        expectation="every seed holds the federation invariants; the "
                    "sweep fingerprint matches "
                    "federation_chaos_baseline.sha256")

    reports = run_federation_sweep(seeds=seeds)
    for r in reports:
        report.row(r.seed, r.ok, r.copies_completed, r.copies_failed,
                   r.faults_begun, r.stale_misses, r.wrong_answers)
    assert all(r.ok for r in reports), [
        (r.seed, r.violations) for r in reports if not r.ok]
    assert all(r.wrong_answers == 0 for r in reports)
    assert any(r.faults_begun > 0 for r in reports)

    fingerprint = sweep_fingerprint(reports)
    pinned = check_pinned_sweep(
        fingerprint, seeds, "federation_chaos_baseline.sha256",
        "federation chaos sweep")

    report.conclusion = (
        f"{len(seeds)} seeds survived; fingerprint "
        f"{fingerprint[:12]}"
        + (" matches the pinned baseline" if pinned
           else " recorded (shrunk sweep: baseline not comparable)"))

    benchmark.pedantic(lambda: run_federation_sweep(seeds=seeds[:1]),
                       rounds=1, iterations=1)
    benchmark.extra_info["fingerprint12"] = fingerprint[:12]

    merge_results(_RESULT_PATH, chaos_sweep={
        "seeds": len(seeds),
        "fingerprint_sha256": fingerprint,
        "all_ok": all(r.ok for r in reports),
        "copies_completed": sum(r.copies_completed for r in reports),
        "copies_failed": sum(r.copies_failed for r in reports),
        "stale_misses": sum(r.stale_misses for r in reports),
        "wrong_answers": sum(r.wrong_answers for r in reports),
    }, pinned_baseline_matched=pinned)
