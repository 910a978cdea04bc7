"""E20: route-class network engine vs the frozen reference engines.

The exploding-star workload (§2.1) puts hundreds of concurrent transfers
on a star of tier links. The live engine re-rates only the transfers
sharing a link with the event, rates each route class (transfers over
equal links) once, and keeps one heap entry per class behind one
persistent timer. ``benchmarks/_network_reference.py`` freezes the engine
it replaced in its two modes: the per-transfer heap (every candidate rated
on its own, one heap entry per transfer) and the global model that
re-rates *every* active transfer on every start/finish (O(active × links)
per event, superlinear per workload). All three settle a transfer only
when its rate changes, so the live engine's completions equal the
per-transfer heap's in **completion order**, and the global model's
completion times **bit for bit** — asserted here, not approximated.

Results land in ``BENCH_network.json`` at the repo root. The speedup gate
(>=5x over the global model) applies at the 5000-transfer point when it
is in the sweep.

The smoke shape skips the 5000-transfer point (the global model alone
needs ~15 s there), and with it the speedup gate.
"""

from functools import partial

from _helpers import REPO_ROOT, merge_results, shape, timed
import _network_reference as reference
from repro.network import Topology, TransferService
from repro.sim import Environment
from repro.storage import MB

SIZES = shape(full=[100, 1_000, 5_000], smoke=[100, 1_000])
N_LEAVES = 64            # tier links fanning out of the source domain
TRANSFER_BYTES = 50 * MB
STAGGER_S = 0.001        # start spacing: every start is its own event

_RESULT_PATH = REPO_ROOT / "BENCH_network.json"


#: The engines compared: the live one and the frozen reference's modes.
ENGINES = {
    "live": TransferService,
    "heap": reference.TransferService,
    "global": partial(reference.TransferService, incremental=False),
}


def run_star_sweep(n_transfers: int, engine: str = "live"):
    """Wall time + completion record (in completion order) of an n-way
    exploding-star fan-out through ``engine``."""
    env = Environment()
    topology = Topology.star(
        "cern", [f"tier-{index}" for index in range(N_LEAVES)],
        latency_s=0.01, bandwidth_bps=100 * MB)
    service = ENGINES[engine](env, topology)

    def starter():
        events = []
        for index in range(n_transfers):
            events.append(service.transfer(
                "cern", f"tier-{index % N_LEAVES}", TRANSFER_BYTES))
            yield env.timeout(STAGGER_S)
        yield env.all_of(events)

    wall = timed(lambda: env.run_process(starter()))
    completions = [
        (stats.src, stats.dst, stats.nbytes, stats.start_time,
         stats.end_time)
        for stats in service.completed]
    assert len(completions) == n_transfers
    return wall, completions


def test_e20_network_live_vs_frozen_reference(benchmark, experiment):
    report = experiment(
        "E20", "Route-class network engine vs the frozen reference",
        header=["transfers", "live_s", "heap_s", "reference_s", "speedup",
                "identical"],
        expectation="affected-set recomputation scales near-linearly while "
                    "the global model is superlinear; route classes beat "
                    "the per-transfer heap; completions are identical")
    rows = []
    speedup_at_5k = None
    for n_transfers in SIZES:
        live_wall, live_completions = run_star_sweep(n_transfers, "live")
        heap_wall, heap_completions = run_star_sweep(n_transfers, "heap")
        ref_wall, ref_completions = run_star_sweep(n_transfers, "global")
        identical = (live_completions == heap_completions
                     and sorted(live_completions) == sorted(ref_completions))
        assert identical, (
            f"completions diverged at {n_transfers} transfers")
        speedup = ref_wall / live_wall if live_wall > 0 else float("inf")
        report.row(n_transfers, live_wall, heap_wall, ref_wall, speedup,
                   identical)
        rows.append({
            "transfers": n_transfers,
            "live_s": round(live_wall, 4),
            "heap_s": round(heap_wall, 4),
            "reference_s": round(ref_wall, 4),
            "speedup": round(speedup, 1),
            "identical": identical,
        })
        if n_transfers == 5_000:
            speedup_at_5k = speedup

    if speedup_at_5k is not None:
        assert speedup_at_5k >= 5.0, (
            f"live engine only {speedup_at_5k:.1f}x faster than the "
            f"global recompute at 5k transfers (needs >=5x)")
        benchmark.extra_info["speedup_at_5k"] = round(speedup_at_5k, 1)
    report.conclusion = (
        "per-link indexing keeps event cost proportional to the contention "
        "component, not the whole active set; route classes rate it once "
        "per class and keep one heap entry each")

    merge_results(_RESULT_PATH, experiment="E20",
                  title="route-class network engine vs frozen reference "
                        "engines",
                  sizes=SIZES, n_leaves=N_LEAVES,
                  transfer_bytes=TRANSFER_BYTES, rows=rows)

    benchmark.pedantic(lambda: run_star_sweep(200),
                       rounds=5, iterations=1)
