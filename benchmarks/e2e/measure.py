"""Timing loop, metric assembly and the run envelope.

A run repeats fresh batches of one workload until ``seconds`` of wall
time have passed (at least :data:`MIN_BATCHES`) and reports medians, so
one slow batch on a shared host does not move the result. Each batch
builds its own deployment; the first batch of a process pays no import
cost because every module is imported before the clock starts.

Host time is the process's CPU time (``time.process_time``). The program
is single-threaded and never waits on I/O, so on an idle host this is
its wall time; on a shared host it leaves out the time other tenants
take. Shared hosts also drift in speed, so host seconds are scaled to
the reference host's speed, measured beside the batches with the fixed
loop in :mod:`.reference`.

End-to-end metrics (untraced run):

* ``setup_s`` — median reference seconds to build and pre-populate one
  deployment;
* ``jobs_per_s`` — median over batches of jobs that reached a terminal
  state per reference second of the timed phase;
* ``peak_mem_mb`` — peak RSS of the process minus its RSS right after
  imports.

Per-layer metrics come from one extra traced batch (see :mod:`.trace`)
plus the counts every untraced batch reads from public stats.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .reference import REFERENCE_S, reference_seconds
from .trace import LAYERS, Tracer
from .workloads import COUNT_METRICS, WORKLOADS, Outcome

__all__ = ["END_TO_END", "PER_LAYER", "measure", "measure_traced"]

SCHEMA = "datagridflow-e2e/1"
MIN_BATCHES = 3
PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
OUT = PACKAGE / "out"
#: Digests pinned for one seed; other seeds check invariants only.
DIGESTS = PACKAGE / "digests.json"

#: name -> unit, for the untraced run.
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "peak_mem_mb": "MB"}

#: Trace-derived metrics: name -> (unit, kind, source). ``share`` is a
#: fraction of traced wall time, ``per_job`` a count divided by jobs.
_TRACED = {
    "dgl.validate_per_job": ("1/job", "per_job", "dgl.validate"),
    "dgl.build_share": ("ratio", "share", "dgl.build"),
    "dgl.builds_per_job": ("1/job", "per_job", "dgl.build"),
    "dfms.server.submit_share": ("ratio", "share", "dfms.server.submit"),
    "dfms.server.submits_per_job": ("1/job", "per_job",
                                    "dfms.server.submit"),
    "dfms.gateway.submit_share": ("ratio", "share", "dfms.gateway.submit"),
    "dfms.gateway.submits_per_job": ("1/job", "per_job",
                                     "dfms.gateway.submit"),
    "grid.catalog.query_share": ("ratio", "share", "grid.catalog.query"),
    "grid.catalog.queries_per_job": ("1/job", "per_job",
                                     "grid.catalog.query"),
    "storage.write_share": ("ratio", "share", "storage.write"),
    "storage.writes_per_job": ("1/job", "per_job", "storage.write"),
    "network.transfer_share": ("ratio", "share", "network.transfer"),
    "federation.locate_share": ("ratio", "share", "federation.locate"),
    "federation.locates_per_job": ("1/job", "per_job",
                                   "federation.locate"),
    # Catalog candidates verified per query result returned.
    "grid.catalog.examined_per_result": ("ratio", "examined",
                                         "grid.catalog.query"),
}

_COUNT_UNITS = {
    "sim.events_per_job": "1/job", "dfms.gateway.shed_ratio": "ratio",
    "dfms.gateway.sojourn_p99_sim_s": "sim_s",
    "dfms.cache.hit_rate": "ratio",
    "federation.false_positive_ratio": "ratio",
    "federation.lrc_queries_per_locate": "1/locate",
    "faults.retries_per_job": "1/job",
}


def _per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
        units.update((name, unit) for name, (unit, _, _) in _TRACED.items()
                     if name.rpartition(".")[0] == layer)
        units.update((name, _COUNT_UNITS.get(name, "count"))
                     for name in COUNT_METRICS
                     if name.rpartition(".")[0] == layer)
    units.update({"trace.unattributed_share": "ratio",
                  "trace.overhead": "ratio", "trace.spans": "count"})
    return units


#: Every per-layer metric: name -> unit, in report order (layer by layer).
PER_LAYER = _per_layer_units()


class BatchResult:
    """Host timings and outcome of one batch: CPU seconds of set-up and
    of the timed phase, and the timed phase's wall seconds."""

    def __init__(self, setup_s: float, run_s: float, wall_s: float,
                 outcome: Outcome) -> None:
        self.setup_s = setup_s
        self.run_s = run_s
        self.wall_s = wall_s
        self.outcome = outcome


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_batch(name: str, seed: int, sizes: Optional[Dict] = None,
              tracer: Optional[Tracer] = None) -> Tuple[BatchResult, Dict]:
    """One fresh deployment of ``name``: set up, run, check.

    With a ``tracer`` the whole batch runs traced, but only the timed
    phase's spans are kept; its aggregates are returned beside the
    result (an empty dict otherwise).
    """
    gc.collect()
    workload = WORKLOADS[name](seed, sizes)
    if tracer is not None:
        tracer.install()
    try:
        started = time.process_time()
        workload.setup()
        if tracer is not None:
            tracer.reset()
        ready = time.process_time()
        ready_wall = time.perf_counter()
        workload.run()
        finished_wall = time.perf_counter()
        finished = time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = finished_wall - ready_wall
    aggregates = {} if tracer is None else _trace_aggregates(tracer, wall_s)
    result = BatchResult(ready - started, finished - ready, wall_s,
                         workload.outcome())
    return result, aggregates


def _trace_aggregates(tracer: Tracer, wall_s: float) -> Dict:
    wall_ns = wall_s * 1e9
    self_ns = tracer.layer_self_ns()
    # Time in no span at all is the benchmark's own dispatch loop.
    self_ns[LAYERS.index("workloads")] += max(0.0, wall_ns - sum(self_ns))
    return {
        "wall_s": wall_s,
        "spans": len(tracer.span_start),
        "layer_self_ns": dict(zip(LAYERS, self_ns)),
        "unattributed_ns": tracer.unattributed_ns(),
        "group_calls": dict(tracer.group_calls),
        "group_ns": dict(tracer.group_ns),
        "counted": dict(tracer.counted),
        "result_sizes": dict(tracer.result_sizes),
    }




def check(name: str, seed: int, outcomes: List[Outcome]) -> List[str]:
    """Problems with a run's outcomes; empty when every output is right."""
    problems = [f"{name}: {violation}" for outcome in outcomes
                for violation in outcome.violations[:5]]
    digests = sorted({outcome.digest for outcome in outcomes})
    if len(digests) > 1:
        problems.append(f"{name}: batches of one seed disagree: {digests}")
    pins = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if seed == pins["seed"]:
        pinned = pins["digests"].get(name)
        if digests and digests[0] != pinned:
            problems.append(f"{name}: digest {digests[0]} != pinned "
                            f"{pinned}")
    return problems


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def _batches(name: str, seed: int, seconds: float, min_batches: int
             ) -> Tuple[List[BatchResult], List[float], List[float]]:
    """Fresh batches until ``seconds`` of wall time pass (at least
    ``min_batches``), with the reference loop timed before the first and
    after every batch. Returns the batches, the loop timings, and each
    batch's host speed: :data:`REFERENCE_S` over the mean of the two
    timings around it, the speed the host had while the batch ran."""
    batches: List[BatchResult] = []
    references = [reference_seconds()]
    started = time.perf_counter()
    while (len(batches) < min_batches
           or time.perf_counter() - started < seconds):
        batches.append(run_batch(name, seed)[0])
        references.append(reference_seconds())
    speeds = [2.0 * REFERENCE_S / (before + after)
              for before, after in zip(references, references[1:])]
    return batches, references, speeds


def measure(name: str, seed: int,
            seconds: float) -> Tuple[Dict, List[BatchResult], Dict]:
    """Untraced run: end-to-end metrics, each the median over batches of
    the batch's value in reference seconds."""
    baseline_kb = _rss_kb()
    batches, references, speeds = _batches(name, seed, seconds,
                                           MIN_BATCHES)
    peak_kb = _rss_kb()
    metrics = {
        "setup_s": _metric(statistics.median(
            b.setup_s * speed for b, speed in zip(batches, speeds)), "s"),
        "jobs_per_s": _metric(statistics.median(
            b.outcome.jobs / (b.run_s * speed)
            for b, speed in zip(batches, speeds)), "1/s"),
        "peak_mem_mb": _metric((peak_kb - baseline_kb) / 1024.0, "MB"),
    }
    return metrics, batches, {"reference_s": references,
                              "host_speed": speeds}


def measure_traced(name: str, seed: int, seconds: float
                   ) -> Tuple[Dict, List[BatchResult], Tracer, Dict]:
    """Untraced batches for ``seconds`` (the overhead baseline and the
    counts), then one traced batch; per-layer metrics."""
    untraced, references, speeds = _batches(name, seed, seconds, 1)
    tracer = Tracer()
    traced, aggregates = run_batch(name, seed, tracer=tracer)
    traced_speed = 2.0 * REFERENCE_S / (references[-1]
                                        + reference_seconds())
    aggregates["host_speed"] = {"untraced": speeds, "traced": traced_speed}
    outcome = untraced[0].outcome
    jobs = outcome.jobs
    wall_ns = aggregates["wall_s"] * 1e9
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            aggregates["layer_self_ns"][layer] / wall_ns)
    examined = aggregates["counted"]["repro.grid.query:Query.matches"]
    results = aggregates["result_sizes"]["repro.grid.query:Query.run"]
    for metric, (_, kind, group) in _TRACED.items():
        if kind == "share":
            metrics[metric] = aggregates["group_ns"][group] / wall_ns
        elif kind == "per_job":
            metrics[metric] = (aggregates["group_calls"][group] / jobs
                               if jobs else 0.0)
        else:
            metrics[metric] = examined / results if results else 0.0
    metrics.update(outcome.counts)
    metrics["trace.unattributed_share"] = (
        aggregates["unattributed_ns"] / wall_ns)
    metrics["trace.overhead"] = traced.wall_s * traced_speed / (
        statistics.median(b.wall_s * speed
                          for b, speed in zip(untraced, speeds)))
    metrics["trace.spans"] = float(aggregates["spans"])
    report = {metric: _metric(metrics[metric], unit)
              for metric, unit in PER_LAYER.items()}
    return report, untraced + [traced], tracer, aggregates


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def envelope(name: str, seed: int, seconds: float, trace: bool,
             batches: List[BatchResult], host: Optional[Dict] = None
             ) -> Dict:
    """What was run, where, and on what."""
    return {
        **(host or {}),
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": WORKLOADS[name].SIZES,
        "batches": len(batches),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "digests": sorted({b.outcome.digest for b in batches}),
        "setup_s": [b.setup_s for b in batches],
        "run_s": [b.run_s for b in batches],
        "wall_s": [b.wall_s for b in batches],
    }
