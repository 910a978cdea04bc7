"""E21: faults & recovery — overhead of resilience, cost of its absence.

A long-run datagrid process (§2.1, §3.1) must survive component faults.
This experiment quantifies what the recovery stack costs and what it
buys, on the chaos harness's CMS workload:

* **zero-overhead gate** — with the whole recovery stack attached but no
  fault schedule, the run is *bit-identical* (same signature: clock,
  per-transfer float timings, execution finish times, provenance count)
  to a plain run; an attached-but-empty schedule is likewise identical.
* **recovery value** — under a seeded chaos schedule, the recovering
  grid completes every execution, while the same schedule against a
  fail-fast grid loses executions outright.
* **recovery cost** — the makespan ratio of the chaotic recovered run
  over the clean run (retries, backoff, resumed transfer remainders).

Results land in ``BENCH_faults.json`` at the repo root.

The smoke shape skips seeds 3 and 4. The per-seed
clean/chaotic/fragile matrix goes through the :mod:`repro.farm` runner,
which keeps it inline: five rows cost ~0.1 s, under the pool's payback.
Results are deterministic and ordered either way.
"""

from _helpers import REPO_ROOT, merge_results, shape
from repro.farm import run_farm
from repro.faults import FaultSchedule
from repro.workloads import run_chaos

SEEDS = shape(full=[0, 1, 2, 3, 4], smoke=[0, 1, 2])
_RESULT_PATH = REPO_ROOT / "BENCH_faults.json"


def _seed_matrix_row(seed):
    """One seed's clean/chaotic/fragile triple.

    Module-level so it pickles into :func:`repro.farm.run_farm` workers;
    each seed's three runs stay on one worker so the per-seed cost is the
    unit of parallelism.
    """
    clean = run_chaos(seed, faults=False, recovery=False)
    chaotic = run_chaos(seed, recovery=True)
    fragile = run_chaos(seed, recovery=False)
    return clean, chaotic, fragile


def test_e21_faults_recovery_overhead(benchmark, experiment):
    report = experiment(
        "E21", "Faults & recovery: resilience overhead and value",
        header=["seed", "clean_s", "chaos_s", "overhead", "restarts",
                "actions", "failed_fragile"],
        expectation="no-fault runs are bit-identical with recovery "
                    "attached (zero overhead); under chaos the recovering "
                    "grid completes everything a fail-fast grid loses")

    # Zero-overhead gate on seed 0: attaching the recovery stack, or an
    # empty fault schedule, must not move a single float.
    plain = run_chaos(0, faults=False, recovery=False)
    armed = run_chaos(0, faults=False, recovery=True)
    empty = run_chaos(0, faults=True, recovery=False,
                      schedule=FaultSchedule())
    assert plain.signature == armed.signature, (
        "recovery stack attached with no faults changed behaviour")
    assert plain.signature == empty.signature, (
        "empty fault schedule attached changed behaviour")

    rows = []
    total_damage = 0
    seed_results = run_farm(_seed_matrix_row, SEEDS)
    for seed, (clean, chaotic, fragile) in zip(SEEDS, seed_results):
        assert chaotic.ok, chaotic.violations
        assert all(state == "completed"
                   for state in chaotic.executions.values())
        failed_fragile = sum(1 for state in fragile.executions.values()
                             if state != "completed")
        total_damage += failed_fragile + fragile.interrupted_transfers
        overhead = (chaotic.makespan / clean.makespan
                    if clean.makespan else float("inf"))
        actions = sum(chaotic.recovery_actions.values())
        report.row(seed, round(clean.makespan, 2),
                   round(chaotic.makespan, 2), round(overhead, 2),
                   chaotic.restarts, actions, failed_fragile)
        rows.append({
            "seed": seed,
            "clean_makespan_s": round(clean.makespan, 4),
            "chaos_makespan_s": round(chaotic.makespan, 4),
            "overhead_ratio": round(overhead, 3),
            "faults_injected": chaotic.faults_begun,
            "interrupted_transfers": chaotic.interrupted_transfers,
            "restarts": chaotic.restarts,
            "recovery_actions": chaotic.recovery_actions,
            "fragile_failed_executions": failed_fragile,
        })

    # The sweep must actually have drawn blood somewhere, or the
    # "recovery value" column is vacuous.
    assert total_damage > 0, (
        "no seed in the sweep produced measurable damage without recovery")

    report.conclusion = (
        "recovery is free until a fault fires (bit-identical no-fault "
        "runs); under chaos it converts lost executions into bounded "
        "makespan overhead")

    merge_results(_RESULT_PATH, experiment="E21",
                  title="faults & recovery overhead", seeds=SEEDS,
                  zero_overhead_bit_identical=True, rows=rows)

    benchmark.pedantic(lambda: run_chaos(0), rounds=3, iterations=1)
    benchmark.extra_info["seeds"] = len(rows)
