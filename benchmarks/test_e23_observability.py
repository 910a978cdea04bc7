"""E23: observability overhead & fidelity — watching may not move a float.

The observability stack (flight recorder + SLO engine,
:func:`repro.telemetry.attach_observability`) claims to be strictly
read-only over the simulation and near-free in wall time. Three gates
hold those claims:

* **bit-identity** — the full seeded chaos sweep with the stack attached
  must fingerprint byte-identical to ``chaos_sweep_baseline.sha256``,
  the hash recorded before observability existed. Recording, ring
  eviction, and probe evaluation may not move a single float.
* **overhead** — a fully observed chaos run (recorder teeing every
  event, engine listener live, probes evaluated at the end) must cost
  under **10%** wall time over the same run with plain telemetry. Same
  methodology as E19: modes interleaved within each round so clock drift
  folds out, gc disabled in the timed region, best-of-N per mode.
* **alert fidelity** — per seed, every injected fault window raises its
  ``fault-window`` alert (recall = 1), and a fault-free sweep raises no
  alert at all (precision: zero false positives on clean runs).

Results land in ``BENCH_observe.json`` at the repo root.

``CHAOS_SEEDS`` shrinks the sweeps for CI smoke; the baseline comparison
only fires on the default 20-seed shape.
"""

import gc
import time
from pathlib import Path

from _helpers import check_pinned_sweep, merge_results
from repro.workloads import (
    default_chaos_seeds,
    run_chaos,
    run_chaos_sweep,
    sweep_fingerprint,
)

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_PATH = _REPO_ROOT / "BENCH_observe.json"

OVERHEAD_GATE_PCT = 10.0
REPEATS = 5
#: Re-measure up to this many times before failing: a process can draw
#: an allocator layout that consistently taxes one mode (see E19).
MAX_ATTEMPTS = 3
BENCH_SEED = 5


def _timed_chaos(observe: bool) -> float:
    """Wall seconds for one chaos run (gc parked outside the region)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run_chaos(BENCH_SEED, observe=observe)
        return time.perf_counter() - start
    finally:
        gc.enable()


def interleaved_best(modes, repeats: int = REPEATS):
    """Best-of-N per mode, modes alternating within every round."""
    for _, measure in modes:
        measure()
    times = {name: [] for name, _ in modes}
    for _ in range(repeats):
        for name, measure in modes:
            times[name].append(measure())
    return {name: min(samples) for name, samples in times.items()}


def test_e23_observability_overhead(benchmark, experiment):
    report = experiment(
        "E23a", "observability overhead: plain telemetry vs full stack",
        header=["mode", "best_ms", "vs_plain_pct"],
        expectation="recorder + SLO engine attached costs "
                    f"<{OVERHEAD_GATE_PCT:.0f}% on the chaos makespan")

    attempts = []
    for _ in range(MAX_ATTEMPTS):
        best = interleaved_best([
            ("plain", lambda: _timed_chaos(observe=False)),
            ("observed", lambda: _timed_chaos(observe=True)),
        ])
        overhead_pct = ((best["observed"] - best["plain"])
                        / best["plain"] * 100)
        attempts.append((overhead_pct, best))
        if overhead_pct < OVERHEAD_GATE_PCT:
            break
    overhead_pct, best = min(attempts, key=lambda attempt: attempt[0])

    report.row("plain", round(best["plain"] * 1000, 2), 0.0)
    report.row("observed", round(best["observed"] * 1000, 2),
               round(overhead_pct, 2))
    report.conclusion = (f"full observability stack costs "
                         f"{overhead_pct:+.1f}% on a chaos run")

    benchmark.pedantic(lambda: _timed_chaos(observe=True),
                       rounds=1, iterations=1)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 2)

    merge_results(_RESULT_PATH, overhead={
        "seed": BENCH_SEED,
        "repeats": REPEATS,
        "plain_s": round(best["plain"], 4),
        "observed_s": round(best["observed"], 4),
        "overhead_pct": round(overhead_pct, 2),
        "gate_pct": OVERHEAD_GATE_PCT,
    })
    assert overhead_pct < OVERHEAD_GATE_PCT, (
        f"observability stack costs {overhead_pct:.1f}% "
        f"(gate: {OVERHEAD_GATE_PCT:.0f}%)")


def test_e23_observed_sweep_bit_identical(benchmark, experiment):
    seeds = default_chaos_seeds()
    report = experiment(
        "E23b", "observed chaos sweep vs pre-observability baseline",
        header=["seeds", "ok", "alerts", "uncovered_windows", "sha12"],
        expectation="watching the sweep moves no float: fingerprint "
                    "equals chaos_sweep_baseline.sha256")

    observed = run_chaos_sweep(seeds=seeds, observe=True)
    assert all(r.ok for r in observed), "chaos invariants violated"
    sweep_sha = sweep_fingerprint(observed)

    # Recall, per seed: every injected fault window raised its alert.
    uncovered = sum(len(r.observe.uncovered_windows) for r in observed)
    total_windows = sum(r.observe.fault_windows for r in observed)
    total_alerts = sum(len(r.observe.alerts) for r in observed)
    assert uncovered == 0, (
        f"{uncovered} fault windows raised no alert across the sweep")
    assert total_windows == sum(r.faults_begun for r in observed)

    bit_identical = check_pinned_sweep(
        sweep_sha, seeds, "chaos_sweep_baseline.sha256",
        "observed chaos sweep")

    report.row(len(seeds), all(r.ok for r in observed), total_alerts,
               uncovered, sweep_sha[:12])
    report.conclusion = (
        f"{total_windows} fault windows all alerted; fingerprint "
        + ("matches the baseline" if bit_identical
           else "recorded (shrunk sweep: baseline not comparable)"))

    benchmark.pedantic(
        lambda: run_chaos_sweep(seeds=seeds[:2], observe=True),
        rounds=1, iterations=1)
    benchmark.extra_info["sweep_sha12"] = sweep_sha[:12]

    merge_results(_RESULT_PATH, sweep={
        "seeds": len(seeds),
        "fault_windows": total_windows,
        "uncovered_windows": uncovered,
        "alerts": total_alerts,
        "sweep_sha256": sweep_sha,
    }, observed_bit_identical=bit_identical)


def test_e23_alert_precision_on_clean_runs(experiment):
    seeds = default_chaos_seeds()
    report = experiment(
        "E23c", "SLO alert precision: fault-free sweep",
        header=["seeds", "alerts"],
        expectation="a clean sweep raises zero alerts (no false positives)")

    clean = run_chaos_sweep(seeds=seeds, faults=False, observe=True)
    false_positives = sum(len(r.observe.alerts) for r in clean)
    assert false_positives == 0, (
        f"{false_positives} alerts raised on fault-free runs: "
        + "; ".join(alert["message"] for r in clean
                    for alert in r.observe.alerts))
    report.row(len(seeds), false_positives)
    report.conclusion = "zero alerts across the fault-free sweep"

    merge_results(_RESULT_PATH, precision={
        "seeds": len(seeds),
        "false_positives": false_positives,
    })
