"""A1 (ablation): cost of recursive flow nesting (§4 / Appendix A design).

DGL's defining structural choice is the *recursive* Flow ("using these
control structures recursively, users can create arbitrarily complicated
gridflow descriptions"). The ablation: does deep nesting cost anything at
execution time compared to the flat equivalent? A chain nested D levels
deep (one step at the bottom) is compared against a flat flow with the
same single step, sweeping D. Shape: overhead linear and tiny per level —
recursion is structurally free, so the design choice costs nothing.
"""

import time

from _helpers import BenchGrid
from repro.workloads import sleep_bag_flow, sleep_chain_flow

#: The engine interprets nesting with native recursion (~4 frames per
#: level), so Python's default recursion limit caps practical depth near
#: 200 — far beyond any real gridflow. The sweep stays under that.
DEPTHS = (1, 16, 64, 128)
REPEATS = 20


def run_depth(depth: int) -> float:
    grid = BenchGrid(n_domains=1)
    started = time.perf_counter()
    for _ in range(REPEATS):
        if depth == 1:
            flow = sleep_bag_flow("flat", 1, 0.0)
        else:
            flow = sleep_chain_flow("deep", depth, 0.0)
        grid.submit_sync(flow)
    return (time.perf_counter() - started) / REPEATS


def test_a1_nesting(benchmark, experiment):
    report = experiment(
        "A1", "Ablation: recursive nesting overhead",
        header=["nesting_depth", "wall_ms_per_flow", "us_per_level"],
        expectation="overhead linear and small per level: the recursive "
                    "Flow design is execution-free")
    times = {}
    for depth in DEPTHS:
        times[depth] = run_depth(depth)
        report.row(depth, times[depth] * 1e3,
                   times[depth] / depth * 1e6)

    per_level_deep = (times[DEPTHS[-1]] - times[DEPTHS[0]]) / (
        DEPTHS[-1] - DEPTHS[0])
    report.conclusion = (f"~{per_level_deep * 1e6:.0f} us per nesting "
                         "level; arbitrary recursion is affordable")
    # Nesting 128 levels, the deepest sweep point, costs well under 100 ms.
    assert times[DEPTHS[-1]] < 0.1

    benchmark.pedantic(run_depth, args=(DEPTHS[-1],), rounds=3,
                       iterations=1)
    benchmark.extra_info["us_per_level"] = round(per_level_deep * 1e6, 2)
