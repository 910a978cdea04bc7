"""E24: gateway saturation & the memoizing cache tier — three gates.

The admission-controlled gateway (:class:`repro.dfms.gateway.DfMSGateway`)
and the DGMS cache tier (:mod:`repro.dfms.cache`) make two measurable
claims and one safety claim:

* **hot-lookup speedup** — with the cache attached, the p50 wall-clock
  latency of the hot repeated lookup pair a flow step performs (a
  catalog query over the event collection plus a replica selection) must
  drop at least **5x** against the same scenario uncached, with the
  achieved hit rate reported alongside.
* **saturation curve** — driving the gateway with the open-loop
  heavy-tailed traffic generator across at least five offered-load
  levels must produce the textbook shape: offered load keeps rising,
  goodput plateaus at the service capacity, and the overflow shows up as
  explicit shed responses (rising shed counts, bounded queue depth)
  instead of unbounded backlog.
* **bit-identity** — attaching the cache to the full seeded chaos sweep
  may not move a single float: the 20-seed fingerprint must equal
  ``chaos_sweep_baseline.sha256``, the hash recorded before the cache
  existed. TTLs tick in sim time and invalidation is precise, so a
  cached run must *behave* identically, merely faster.

Results land in ``BENCH_gateway.json`` at the repo root.

CI smoke knobs (all optional): ``GATEWAY_BENCH_EVENTS`` and
``GATEWAY_BENCH_ROUNDS`` shrink the hot-lookup measurement,
``GATEWAY_BENCH_LOADS`` (comma list) and ``GATEWAY_BENCH_HORIZON``
shrink the saturation sweep, ``CHAOS_SEEDS`` shrinks the sweep — the
hard gates only fire at the default shapes.
"""

import os
import time
from pathlib import Path
from statistics import median

from _helpers import check_pinned_sweep, env_int, merge_results
from repro.dfms.cache import attach_cache
from repro.grid.query import Query
from repro.workloads import (
    default_chaos_seeds,
    run_chaos_sweep,
    run_saturation_curve,
    sweep_fingerprint,
)
from repro.workloads.scenarios import cms_scenario

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_PATH = _REPO_ROOT / "BENCH_gateway.json"

SPEEDUP_GATE = 5.0
DEFAULT_EVENTS = 300
DEFAULT_ROUNDS = 400
DEFAULT_LOADS = "0.5,1,2,4,8"
DEFAULT_HORIZON = 60.0
#: Last three curve points must sit within this relative band for the
#: goodput to count as a plateau.
PLATEAU_TOLERANCE = 0.10


def _hot_lookup_scenario(n_events: int):
    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1,
                            n_events=n_events, seed=0)
    user = scenario.users["physicist"]
    objects = list(
        scenario.dgms.namespace.iter_objects_in_path_order("/cms/run1"))
    domains = scenario.extras["tier2"]
    # "Hot" means *repeated*: the replica rotation cycles a small working
    # set (as a polling workload would), not the whole collection.
    return scenario, user, objects[:16] or objects, domains


def _measure_rounds(scenario, user, objects, domains, rounds: int):
    """Per-round wall seconds for the hot pair: query + replica pick."""
    dgms = scenario.dgms
    query = Query(collection="/cms/run1")
    samples = []
    for index in range(rounds):
        obj = objects[index % len(objects)]
        domain = domains[index % len(domains)]
        start = time.perf_counter()
        results = dgms.query(user, query)
        dgms.select_replica(obj, domain)
        samples.append(time.perf_counter() - start)
        assert len(results) >= len(objects)
    return samples


def test_e24_hot_lookup_speedup(benchmark, experiment):
    n_events = env_int("GATEWAY_BENCH_EVENTS", DEFAULT_EVENTS)
    rounds = env_int("GATEWAY_BENCH_ROUNDS", DEFAULT_ROUNDS)
    full_size = (n_events, rounds) == (DEFAULT_EVENTS, DEFAULT_ROUNDS)

    report = experiment(
        "E24a", "cache tier: hot catalog/replica lookup latency",
        header=["mode", "rounds", "p50_us", "hit_rate"],
        expectation=f"cached hot-pair p50 >= {SPEEDUP_GATE:.0f}x faster "
                    "than uncached on the same catalog")

    scenario, user, objects, domains = _hot_lookup_scenario(n_events)
    # Warm both code paths, then best-of-3 p50 per mode on one scenario:
    # uncached first, then the cache attached to the same live catalog.
    _measure_rounds(scenario, user, objects, domains, rounds // 8)
    uncached_p50 = min(
        median(_measure_rounds(scenario, user, objects, domains, rounds))
        for _ in range(3))
    cache = attach_cache(scenario.dgms)
    _measure_rounds(scenario, user, objects, domains, rounds // 8)
    cached_p50 = min(
        median(_measure_rounds(scenario, user, objects, domains, rounds))
        for _ in range(3))
    speedup = uncached_p50 / cached_p50
    hit_rate = cache.hit_rate

    report.row("uncached", rounds, round(uncached_p50 * 1e6, 2), "-")
    report.row("cached", rounds, round(cached_p50 * 1e6, 2),
               round(hit_rate, 4))
    report.conclusion = (f"cache tier is {speedup:.1f}x on the hot pair "
                         f"at {hit_rate:.1%} hit rate")

    benchmark.pedantic(
        lambda: _measure_rounds(scenario, user, objects, domains,
                                max(rounds // 4, 1)),
        rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    merge_results(_RESULT_PATH, hot_lookup={
        "events": n_events,
        "rounds": rounds,
        "uncached_p50_us": round(uncached_p50 * 1e6, 3),
        "cached_p50_us": round(cached_p50 * 1e6, 3),
        "speedup": round(speedup, 2),
        "hit_rate": round(hit_rate, 4),
        "gate": SPEEDUP_GATE,
    })

    assert hit_rate > 0.9, f"hot loop should stay cached ({hit_rate:.1%})"
    if full_size:
        assert speedup >= SPEEDUP_GATE, (
            f"cache tier only {speedup:.2f}x on the hot lookup pair "
            f"(gate: {SPEEDUP_GATE}x)")


def test_e24_gateway_saturation_curve(benchmark, experiment):
    loads_raw = os.environ.get("GATEWAY_BENCH_LOADS", "") or DEFAULT_LOADS
    loads = [float(x) for x in loads_raw.split(",") if x.strip()]
    horizon = float(os.environ.get("GATEWAY_BENCH_HORIZON", "")
                    or DEFAULT_HORIZON)
    full_size = loads_raw == DEFAULT_LOADS and horizon == DEFAULT_HORIZON

    report = experiment(
        "E24b", "gateway saturation: offered load vs goodput vs shed",
        header=["offered_per_s", "goodput_per_s", "p50_sojourn_s",
                "p99_sojourn_s", "shed", "peak_queue", "cache_hit"],
        expectation="goodput plateaus at service capacity while sheds "
                    "rise and the queue stays bounded")

    curve = run_saturation_curve(loads, seed=0, horizon_s=horizon,
                                 workers=4, queue_limit=32, cache=True)
    for point in curve:
        report.row(round(point["offered_rate"], 3),
                   round(point["goodput_rate"], 3),
                   round(point["p50_sojourn_s"], 2),
                   round(point["p99_sojourn_s"], 2),
                   point["shed_total"], point["peak_queue_depth"],
                   round(point["cache_hit_rate"], 3))

    offered = [point["offered_rate"] for point in curve]
    goodput = [point["goodput_rate"] for point in curve]
    sheds = [point["shed_total"] for point in curve]
    plateau = goodput[-3:]
    spread = (max(plateau) - min(plateau)) / max(plateau)
    report.conclusion = (
        f"goodput plateaus at ~{plateau[-1]:.2f}/s "
        f"(spread {spread:.1%} over the top three loads) while sheds "
        f"climb to {sheds[-1]} and the queue caps at "
        f"{curve[-1]['peak_queue_depth']}")

    benchmark.pedantic(
        lambda: run_saturation_curve([loads[0]], seed=1,
                                     horizon_s=min(horizon, 20.0),
                                     workers=4, queue_limit=32),
        rounds=1, iterations=1)
    benchmark.extra_info["plateau_goodput"] = round(plateau[-1], 3)

    merge_results(_RESULT_PATH, saturation={
        "loads": loads,
        "horizon_s": horizon,
        "workers": 4,
        "queue_limit": 32,
        "curve": curve,
        "plateau_spread": round(spread, 4),
    })

    assert len(curve) >= 5, "the curve needs at least five load points"
    assert offered == sorted(offered), "offered load must rise monotonically"
    assert all(point["cache_hit_rate"] > 0.5 for point in curve), (
        "the traffic's hot lookups should mostly hit the cache")
    if full_size:
        assert spread <= PLATEAU_TOLERANCE, (
            f"goodput still moving {spread:.1%} across the top three "
            "loads — not saturated")
        assert sheds[-3] < sheds[-2] < sheds[-1], (
            f"sheds should keep rising past saturation, got {sheds}")
        assert all(point["peak_queue_depth"] <= 32 for point in curve), (
            "queue bound violated")


def test_e24_cached_sweep_bit_identical(benchmark, experiment):
    seeds = default_chaos_seeds()
    report = experiment(
        "E24c", "cache-attached chaos sweep vs pre-cache baseline",
        header=["seeds", "ok", "sha12"],
        expectation="attaching the cache tier moves no float: fingerprint "
                    "equals chaos_sweep_baseline.sha256")

    cached = run_chaos_sweep(seeds=seeds, cache=True)
    assert all(r.ok for r in cached), "chaos invariants violated under cache"
    sweep_sha = sweep_fingerprint(cached)
    bit_identical = check_pinned_sweep(
        sweep_sha, seeds, "chaos_sweep_baseline.sha256",
        "cache-attached chaos sweep")

    report.row(len(seeds), all(r.ok for r in cached), sweep_sha[:12])
    report.conclusion = (
        "fingerprint matches the baseline" if bit_identical
        else "fingerprint recorded (shrunk sweep: baseline not comparable)")

    benchmark.pedantic(lambda: run_chaos_sweep(seeds=seeds[:2], cache=True),
                       rounds=1, iterations=1)
    benchmark.extra_info["sweep_sha12"] = sweep_sha[:12]

    merge_results(_RESULT_PATH, sweep={
        "seeds": len(seeds),
        "sweep_sha256": sweep_sha,
    }, cached_bit_identical=bit_identical)
