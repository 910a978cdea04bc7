"""E22: kernel hot loop & seed farm — batched dispatch speed, farm scaling.

Two throughput claims land here, both against hard gates:

* **single-core** — the batch-drain kernel (three-lane scheduler: urgent
  deque / heap-at-now / current-timestamp deque) must push an E1/E3-shaped
  event-churn mix at least **5x** faster than the pre-batching kernel,
  which is frozen verbatim in ``benchmarks/_kernel_reference.py``. The
  mix is what the scale experiments actually generate, isolated from
  workload-side Python so the *kernel's* cost is what gets compared:

  - a **trigger storm** — one synchronized barrier where a large batch of
    already-created events all succeed at the same timestamp and drain
    (E1's task-completion barriers, E8's imploding star). The reference
    pays two stale sweeps, two method calls, and two O(log n) heap
    operations per event, all through a heap saturated with equal
    ``(time, priority)`` keys where every sift comparison falls through
    to the third tuple element; the batched kernel takes its delay-0
    FIFO lane and never touches the heap.
  - **cascade churn** — chained delay-0 wake-ups (completion → dependent
    → next completion) over a deep heap of far-future timeouts, the E3
    resource-release pattern.

  The two kernels must also process a mixed process/timeout/cascade
  workload in the *same order* — the speedup may not buy any behaviour
  change — and so must the batched kernel with a schedule sanitizer
  attached, which drains the same hot loop through its own lanes.
* **seed farm** — fanning the 20-seed chaos sweep across a process pool
  (:func:`repro.farm.run_farm`) must return results byte-identical to
  the serial loop, in the same order, and scale near-linearly: farm
  speedup over serial > 0.6 x the effective worker count (workers capped
  by the cores this host actually grants). The sweep fingerprint is also
  pinned to the hash recorded under the pre-batching kernel, so the
  rewrite provably moved no float anywhere in the chaos stack.

Results land in ``BENCH_kernel.json`` at the repo root, with the
reference-kernel baseline recorded alongside so the ratio is auditable.

The timings here read the clock with the garbage collector running,
unlike :func:`_helpers.timed`: both gates were tuned that way, and the
collections the reference kernel's allocations trigger are part of the
cost batching removes. With the collector parked, two full-shape runs on
a 2-vCPU host measured 3.7x and 5.3x where the parent measured 6.6x and
6.0x.

The smoke shape runs a fifth of the trigger storm and a quarter of the
cascade roots, and skips the 5x gate; the farm sweeps the pinned 20 seeds
at both shapes.
"""

import time

from _helpers import REPO_ROOT, SMOKE, check_pinned_sweep, merge_results, shape
import _kernel_reference as reference_kernel
from repro.analysis.sanitizer import SanitizeConfig, ScheduleSanitizer
from repro.errors import Interrupt
from repro.farm import default_jobs
from repro.sim import kernel as batched_kernel
from repro.workloads import run_chaos_sweep, sweep_fingerprint

_RESULT_PATH = REPO_ROOT / "BENCH_kernel.json"

SPEEDUP_GATE = 5.0
FARM_EFFICIENCY_GATE = 0.6

STORM = shape(full=150_000, smoke=30_000)
ROOTS = shape(full=400, smoke=100)
DEPTH = 200
BACKGROUND = 5000
#: The farm's sweep: the pinned chaos seeds, at both shapes.
SEEDS = list(range(20))


def trigger_storm(kernel, n_events: int, n_background: int):
    """Mass same-timestamp completion barrier: schedule + drain.

    Events are pre-created *outside* the timed region (allocation cost is
    identical in both kernels); the timed region is the kernel's half:
    ``succeed()`` scheduling and the dispatch drain.
    """
    env = kernel.Environment()
    for i in range(n_background):
        env.timeout(10_000.0 + i)
    events = [kernel.Event(env) for _ in range(n_events)]
    start = time.perf_counter()
    for event in events:
        event.succeed()
    env.run(until=1.0)
    elapsed = time.perf_counter() - start
    assert all(event.processed for event in events)
    return n_events, elapsed


def cascade_churn(kernel, n_roots: int, depth: int, n_background: int):
    """Chained delay-0 wake-ups: each completion's callback triggers the
    next, ``n_roots`` chains deep over a heap of far-future timeouts."""
    env = kernel.Environment()
    Event = kernel.Event
    for i in range(n_background):
        env.timeout(10_000.0 + i)

    def relay(event):
        n = event._value
        if n:
            nxt = Event(env)
            nxt.callbacks.append(relay)
            nxt.succeed(n - 1)

    def kick(event):
        for _ in range(n_roots):
            nxt = Event(env)
            nxt.callbacks.append(relay)
            nxt.succeed(depth - 1)

    timer = env.timeout(1.0)
    timer.callbacks.append(kick)
    start = time.perf_counter()
    env.run(until=2.0)
    elapsed = time.perf_counter() - start
    return n_roots * depth, elapsed


def mixed_workload(env, n_chains: int, rounds: int, cascade: int,
                   n_background: int, trace):
    """Order-fidelity workload: processes synchronized on a heartbeat,
    delay-0 wake cascades, an interrupt per round, and reschedule churn.

    Not timed — it exists so the two kernels can be required to dispatch
    a realistic mixed workload in the exact same order. Runs on ``env``
    (either kernel's environment) and returns it.
    """
    for i in range(n_background):
        env.timeout(10_000.0 + i)

    def sleeper(tag):
        try:
            yield env.timeout(1000.0)
        except Interrupt as interrupt:
            trace.append((env.now, "interrupted", tag, interrupt.cause))

    def chain(tag):
        timer = env.timeout(5.0)
        victim = env.process(sleeper(tag))
        for round_no in range(rounds):
            yield env.timeout(1.0)
            timer.reschedule(5.0)  # strands the previous heap entry stale
            if round_no == rounds // 2 and victim.is_alive:
                victim.interrupt(cause=tag)
            for _ in range(cascade):
                wake = env.event()
                wake.succeed(tag)
                got = yield wake
                trace.append((env.now, "wake", got))
        trace.append((env.now, "done", tag))

    for tag in range(n_chains):
        env.process(chain(tag))
    env.run(until=rounds + 1)
    return env


def test_e22_kernel_batching_speedup(benchmark, experiment):
    report = experiment(
        "E22a", "Kernel hot loop: batch-drain vs pre-batching reference",
        header=["kernel", "shape", "events", "elapsed_s", "events_per_s"],
        expectation=f"batched kernel >= {SPEEDUP_GATE:.0f}x the reference "
                    "on the E1/E3 event mix, with identical dispatch order")

    # Order equivalence first: the same mixed process/timeout/interrupt
    # workload must interleave identically on both kernels, and on the
    # batched one with a sanitizer attached, before speed means anything.
    ref_trace, new_trace, san_trace = [], [], []
    ref_env = mixed_workload(reference_kernel.Environment(),
                             20, 10, 4, 100, ref_trace)
    new_env = mixed_workload(batched_kernel.Environment(),
                             20, 10, 4, 100, new_trace)
    san_env = batched_kernel.Environment()
    ScheduleSanitizer(SanitizeConfig()).attach(san_env)
    mixed_workload(san_env, 20, 10, 4, 100, san_trace)
    assert ref_trace == new_trace, "batched kernel reordered event dispatch"
    assert ref_trace == san_trace, "sanitized kernel reordered event dispatch"
    assert ref_env.now == new_env.now == san_env.now
    assert ref_env._eid == new_env._eid == san_env._eid, (
        "kernels scheduled different event counts for identical workloads")

    def best_of_3(kernel):
        storm_events, storm_s = min(
            (trigger_storm(kernel, STORM, BACKGROUND)
             for _ in range(3)), key=lambda r: r[1])
        churn_events, churn_s = min(
            (cascade_churn(kernel, ROOTS, DEPTH, BACKGROUND)
             for _ in range(3)), key=lambda r: r[1])
        return storm_events, storm_s, churn_events, churn_s

    # Warm both code paths, then take best-of-3 per shape per kernel.
    trigger_storm(reference_kernel, STORM // 4, BACKGROUND)
    trigger_storm(batched_kernel, STORM // 4, BACKGROUND)
    cascade_churn(reference_kernel, ROOTS // 2, DEPTH, BACKGROUND)
    cascade_churn(batched_kernel, ROOTS // 2, DEPTH, BACKGROUND)
    ref_se, ref_ss, ref_ce, ref_cs = best_of_3(reference_kernel)
    new_se, new_ss, new_ce, new_cs = best_of_3(batched_kernel)
    assert (ref_se, ref_ce) == (new_se, new_ce)

    events = ref_se + ref_ce
    ref_eps = events / (ref_ss + ref_cs)
    new_eps = events / (new_ss + new_cs)
    speedup = new_eps / ref_eps
    report.row("reference", "storm", ref_se, ref_ss, ref_se / ref_ss)
    report.row("reference", "cascade", ref_ce, ref_cs, ref_ce / ref_cs)
    report.row("batched", "storm", new_se, new_ss, new_se / new_ss)
    report.row("batched", "cascade", new_ce, new_cs, new_ce / new_cs)
    report.conclusion = (f"batched kernel is {speedup:.1f}x the reference "
                         f"on the combined mix ({new_eps:,.0f} vs "
                         f"{ref_eps:,.0f} events/s)")

    benchmark.pedantic(
        lambda: cascade_churn(batched_kernel, ROOTS, DEPTH, BACKGROUND),
        rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    merge_results(_RESULT_PATH, single_core={
        "workload": {"storm_events": STORM, "cascade_roots": ROOTS,
                     "cascade_depth": DEPTH, "background": BACKGROUND},
        "events": events,
        "reference_eps": round(ref_eps, 1),
        "reference_storm_s": round(ref_ss, 4),
        "reference_cascade_s": round(ref_cs, 4),
        "batched_eps": round(new_eps, 1),
        "batched_storm_s": round(new_ss, 4),
        "batched_cascade_s": round(new_cs, 4),
        "speedup": round(speedup, 2),
        "order_identical": True,
    })

    if not SMOKE:
        assert speedup >= SPEEDUP_GATE, (
            f"batched kernel only {speedup:.2f}x the reference "
            f"(gate: {SPEEDUP_GATE}x)")


def test_e22_seed_farm_scaling(benchmark, experiment):
    cores = default_jobs()
    jobs = max(2, cores)  # force a real pool even on a one-core host

    report = experiment(
        "E22b", "Seed farm: multiprocess chaos sweep vs serial loop",
        header=["mode", "seeds", "jobs", "elapsed_s", "seeds_per_s"],
        expectation="pool results byte-identical to serial, in order; "
                    f"speedup > {FARM_EFFICIENCY_GATE} x effective workers")

    start = time.perf_counter()
    serial = run_chaos_sweep(seeds=SEEDS, jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    farmed = run_chaos_sweep(seeds=SEEDS, jobs=jobs)
    farm_s = time.perf_counter() - start

    assert [r.seed for r in farmed] == SEEDS, "farm reordered results"
    identical = all(repr(a.signature) == repr(b.signature)
                    and a.ok == b.ok and a.violations == b.violations
                    for a, b in zip(serial, farmed))
    assert identical, "farmed chaos results differ from the serial loop"
    assert all(r.ok for r in farmed), "chaos invariants violated under farm"

    speedup = serial_s / farm_s
    effective = min(jobs, cores, len(SEEDS))
    report.row("serial", len(SEEDS), 1, serial_s, len(SEEDS) / serial_s)
    report.row("farm", len(SEEDS), jobs, farm_s, len(SEEDS) / farm_s)
    report.conclusion = (f"farm is {speedup:.2f}x serial on {cores} core(s) "
                         f"({jobs} workers); results byte-identical")

    benchmark.pedantic(lambda: run_chaos_sweep(seeds=SEEDS[:4], jobs=jobs),
                       rounds=1, iterations=1)
    benchmark.extra_info["farm_speedup"] = round(speedup, 2)

    # The 20-seed determinism gate: the sweep fingerprint is pinned to the
    # hash recorded under the pre-batching kernel, so any kernel change
    # that moves a single float fails here, not in some downstream paper
    # figure.
    sweep_sha = sweep_fingerprint(farmed)
    bit_identical = check_pinned_sweep(
        sweep_sha, SEEDS, "chaos_sweep_baseline.sha256",
        "farmed chaos sweep")

    merge_results(_RESULT_PATH, farm={
        "seeds": len(SEEDS),
        "jobs": jobs,
        "cores": cores,
        "serial_s": round(serial_s, 3),
        "farm_s": round(farm_s, 3),
        "speedup": round(speedup, 2),
        "signatures_identical": identical,
        "sweep_sha256": sweep_sha,
    }, chaos_bit_identical=bit_identical)

    assert speedup > FARM_EFFICIENCY_GATE * effective, (
        f"farm speedup {speedup:.2f}x below gate "
        f"{FARM_EFFICIENCY_GATE} x {effective} effective workers")
