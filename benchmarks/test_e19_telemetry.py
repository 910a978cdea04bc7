"""E19: telemetry overhead — disabled must be free, enabled must be cheap.

The telemetry layer instruments six subsystems behind an
``env.telemetry is None`` guard. This experiment measures the same flow
workload three ways: telemetry never attached (the seed behavior), a
second detached run (the run-to-run noise floor), and with a full
session attached. Disabled overhead must sit inside the noise floor;
enabled overhead must stay under 10%.

Methodology, learned the hard way: wall-clock drifts several percent
over a run of back-to-back measurements (frequency scaling, allocator
state), so measuring each mode in its own sequential block folds that
drift into the comparison. The modes are therefore *interleaved* —
one round measures every mode once, and each mode keeps its best round
— and the garbage collector is disabled inside the timed region (a
collection landing in one mode's window would otherwise dominate the
delta being measured).

A second, report-only microbench times the sim kernel alone (a pure
timeout cascade) both ways, since the kernel hot path carries no
instrumentation at all (collect() derives its counts).

Results land in ``BENCH_telemetry.json`` at the repo root.

The smoke shape skips 50 of the flow's 150 put+replicate pairs.
"""

from _helpers import (
    REPO_ROOT,
    BenchGrid,
    interleaved_best,
    least_overhead,
    merge_results,
    shape,
    timed,
)
from repro.dgl import flow_builder
from repro.sim import Environment
from repro.storage import MB
from repro.telemetry import attach_telemetry

STEPS = shape(full=150, smoke=100)  # put+replicate pairs: 2x this many steps
REPEATS = 7
_RESULT_PATH = REPO_ROOT / "BENCH_telemetry.json"


def workload_flow(count: int):
    builder = flow_builder("telemetry-workload")
    for index in range(count):
        path = f"/data/wl-{index:04d}.dat"
        builder.step(f"put-{index:04d}", "srb.put", path=path,
                     size=2 * MB, resource="d0-disk")
        builder.step(f"rep-{index:04d}", "srb.replicate", path=path,
                     resource="d1-disk")
    return builder.build()


def run_once(enabled: bool) -> float:
    """Wall seconds for one fresh-grid workload run (setup untimed)."""
    grid = BenchGrid(n_domains=2)
    if enabled:
        attach_telemetry(grid.env, server=grid.server)
    flow = workload_flow(STEPS)
    return timed(lambda: grid.submit_sync(flow))


def kernel_only(enabled: bool) -> float:
    """Time a pure timeout cascade on the bare kernel."""
    env = Environment()
    if enabled:
        attach_telemetry(env)

    def ticker():
        for _ in range(20_000):
            yield env.timeout(1.0)

    return timed(lambda: env.run_process(ticker()))


def test_e19_telemetry_overhead(benchmark, experiment):
    report = experiment(
        "E19", "telemetry overhead: detached vs attached",
        header=["mode", "best_ms", "vs_baseline_pct"],
        expectation="a detached run re-measures within noise of the "
                    "baseline; an attached session costs <10%")

    enabled_pct, flow_best = least_overhead([
        ("baseline", lambda: run_once(enabled=False)),
        ("detached", lambda: run_once(enabled=False)),
        ("attached", lambda: run_once(enabled=True)),
    ], REPEATS, base="baseline", probe="attached", gate_pct=10.0)
    baseline_s = flow_best["baseline"]
    detached_s = flow_best["detached"]
    enabled_s = flow_best["attached"]

    noise_pct = (detached_s - baseline_s) / baseline_s * 100
    report.row("baseline (no session)", baseline_s * 1e3, 0.0)
    report.row("detached re-run", detached_s * 1e3, noise_pct)
    report.row("attached session", enabled_s * 1e3, enabled_pct)

    kernel_best = interleaved_best([
        ("baseline", lambda: kernel_only(enabled=False)),
        ("attached", lambda: kernel_only(enabled=True)),
    ], REPEATS)
    kernel_base_s = kernel_best["baseline"]
    kernel_on_s = kernel_best["attached"]
    kernel_pct = (kernel_on_s - kernel_base_s) / kernel_base_s * 100
    report.row("kernel-only baseline", kernel_base_s * 1e3, 0.0)
    report.row("kernel-only attached", kernel_on_s * 1e3, kernel_pct)

    assert enabled_pct < 10.0, (
        f"attached telemetry costs {enabled_pct:.1f}% "
        f"(needs <10%; noise floor was {noise_pct:.1f}%)")
    benchmark.extra_info["enabled_overhead_pct"] = round(enabled_pct, 2)
    benchmark.extra_info["noise_floor_pct"] = round(noise_pct, 2)
    report.conclusion = (
        f"attached telemetry costs {enabled_pct:.1f}% on the flow "
        f"workload (noise floor {noise_pct:.1f}%), "
        f"{kernel_pct:.1f}% on the bare kernel")

    rows = [
        {"mode": "baseline", "best_ms": round(baseline_s * 1e3, 3)},
        {"mode": "detached-rerun", "best_ms": round(detached_s * 1e3, 3),
         "vs_baseline_pct": round(noise_pct, 2)},
        {"mode": "attached", "best_ms": round(enabled_s * 1e3, 3),
         "vs_baseline_pct": round(enabled_pct, 2)},
        {"mode": "kernel-baseline",
         "best_ms": round(kernel_base_s * 1e3, 3)},
        {"mode": "kernel-attached",
         "best_ms": round(kernel_on_s * 1e3, 3),
         "vs_baseline_pct": round(kernel_pct, 2)},
    ]
    merge_results(_RESULT_PATH, experiment="E19",
                  title="telemetry overhead: detached vs attached",
                  steps=STEPS, repeats=REPEATS, rows=rows)

    benchmark.pedantic(lambda: run_once(enabled=True), rounds=3,
                       iterations=1)
