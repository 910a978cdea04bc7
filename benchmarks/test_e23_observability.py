"""E23: observability overhead & fidelity — watching may not move a float.

The observability stack (flight recorder + SLO engine,
:func:`repro.telemetry.attach_observability`) claims to be strictly
read-only over the simulation and near-free in wall time. Three gates
hold those claims:

* **bit-identity** — the full seeded chaos sweep with the stack attached
  must fingerprint byte-identical to ``chaos_sweep_baseline.sha256``,
  the hash recorded before observability existed. Recording, ring
  eviction, and probe evaluation may not move a single float.
* **overhead** — fully observed chaos runs (recorder teeing every
  event, probes evaluated at the end) must cost under **10%** wall time
  over the same runs with plain telemetry. Each sample runs chaos seeds
  0–5 back to back (~20 ms on a 2-vCPU host), so the bound is
  resolvable: one ~4–5 ms run left ~0.4 ms to decide the verdict. Same
  methodology as E19: modes interleaved within each round so clock drift
  folds out, gc disabled in the timed region, best-of-N per mode.
* **alert fidelity** — per seed, every injected fault window raises its
  ``fault-window`` alert (recall = 1), and a fault-free sweep raises no
  alert at all (precision: zero false positives on clean runs).

Results land in ``BENCH_observe.json`` at the repo root.

The smoke shape sweeps 6 of the 20 seeds, so it skips the baseline
comparison.
"""

from _helpers import (
    REPO_ROOT,
    check_pinned_sweep,
    least_overhead,
    merge_results,
    shape,
    timed,
)
from repro.workloads import run_chaos, run_chaos_sweep, sweep_fingerprint

_RESULT_PATH = REPO_ROOT / "BENCH_observe.json"

OVERHEAD_GATE_PCT = 10.0
REPEATS = 5
#: The chaos seeds one E23a sample runs, back to back.
BENCH_SEEDS = tuple(range(6))
SEEDS = shape(full=list(range(20)), smoke=list(range(6)))


def _timed_chaos(observe: bool) -> float:
    """Wall seconds for the :data:`BENCH_SEEDS` chaos runs."""
    return timed(lambda: [run_chaos(seed, observe=observe)
                          for seed in BENCH_SEEDS])


def test_e23_observability_overhead(benchmark, experiment):
    report = experiment(
        "E23a", "observability overhead: plain telemetry vs full stack",
        header=["mode", "best_ms", "vs_plain_pct"],
        expectation="recorder + SLO engine attached costs "
                    f"<{OVERHEAD_GATE_PCT:.0f}% on the chaos makespan")

    overhead_pct, best = least_overhead([
        ("plain", lambda: _timed_chaos(observe=False)),
        ("observed", lambda: _timed_chaos(observe=True)),
    ], REPEATS, base="plain", probe="observed",
        gate_pct=OVERHEAD_GATE_PCT)

    report.row("plain", round(best["plain"] * 1000, 2), 0.0)
    report.row("observed", round(best["observed"] * 1000, 2),
               round(overhead_pct, 2))
    report.conclusion = (f"full observability stack costs "
                         f"{overhead_pct:+.1f}% on a chaos run")

    benchmark.pedantic(lambda: _timed_chaos(observe=True),
                       rounds=1, iterations=1)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 2)

    merge_results(_RESULT_PATH, overhead={
        "seeds": list(BENCH_SEEDS),
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
    report = experiment(
        "E23b", "observed chaos sweep vs pre-observability baseline",
        header=["seeds", "ok", "alerts", "uncovered_windows", "sha12"],
        expectation="watching the sweep moves no float: fingerprint "
                    "equals chaos_sweep_baseline.sha256")

    observed = run_chaos_sweep(seeds=SEEDS, observe=True)
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
        sweep_sha, SEEDS, "chaos_sweep_baseline.sha256",
        "observed chaos sweep")

    report.row(len(SEEDS), all(r.ok for r in observed), total_alerts,
               uncovered, sweep_sha[:12])
    report.conclusion = (
        f"{total_windows} fault windows all alerted; fingerprint "
        + ("matches the baseline" if bit_identical
           else "recorded (shrunk sweep: baseline not comparable)"))

    benchmark.pedantic(
        lambda: run_chaos_sweep(seeds=SEEDS[:2], observe=True),
        rounds=1, iterations=1)
    benchmark.extra_info["sweep_sha12"] = sweep_sha[:12]

    merge_results(_RESULT_PATH, sweep={
        "seeds": len(SEEDS),
        "fault_windows": total_windows,
        "uncovered_windows": uncovered,
        "alerts": total_alerts,
        "sweep_sha256": sweep_sha,
    }, observed_bit_identical=bit_identical)


def test_e23_alert_precision_on_clean_runs(experiment):
    report = experiment(
        "E23c", "SLO alert precision: fault-free sweep",
        header=["seeds", "alerts"],
        expectation="a clean sweep raises zero alerts (no false positives)")

    clean = run_chaos_sweep(seeds=SEEDS, faults=False, observe=True)
    false_positives = sum(len(r.observe.alerts) for r in clean)
    assert false_positives == 0, (
        f"{false_positives} alerts raised on fault-free runs: "
        + "; ".join(alert["message"] for r in clean
                    for alert in r.observe.alerts))
    report.row(len(SEEDS), false_positives)
    report.conclusion = "zero alerts across the fault-free sweep"

    merge_results(_RESULT_PATH, precision={
        "seeds": len(SEEDS),
        "false_positives": false_positives,
    })
