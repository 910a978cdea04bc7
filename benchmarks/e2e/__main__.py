"""Command line for the end-to-end benchmark.

One workload, in this process::

    python -m benchmarks.e2e --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Every workload, each in its own fresh subprocess, one at a time::

    python -m benchmarks.e2e [--seed N] [--seconds S] [--trace]

Every metric is printed with its name and unit. The last line of a
single-workload run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is non-zero
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import List, Optional

from . import SRC

WORKLOAD_NAMES = ("exploding_star", "gateway_traffic", "federation_copy",
                  "archive_ingest")
DEFAULT_SECONDS = 20.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall time of repeated batches per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run printing per-layer metrics")
    return parser


def _print_metrics(title: str, metrics) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from . import measure

    host = None
    if trace:
        metrics, batches, tracer, aggregates = measure.measure_traced(
            workload, seed, seconds)
    else:
        metrics, batches, host = measure.measure(workload, seed, seconds)
    outcomes = [batch.outcome for batch in batches]
    problems = measure.check(workload, seed, outcomes)
    envelope = measure.envelope(workload, seed, seconds, trace, batches,
                                host)
    stem = f"{workload}-trace" if trace else workload
    measure.OUT.mkdir(parents=True, exist_ok=True)
    (measure.OUT / f"{stem}.json").write_text(json.dumps(
        {"envelope": envelope, "metrics": metrics, "problems": problems},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if trace:
        tracer.write(measure.OUT, workload, dict(aggregates,
                                                 envelope=envelope))
    _print_metrics(f"{workload} (seed {seed}, {len(batches)} batches"
                   f"{', traced' if trace else ''})", metrics)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"envelope": envelope}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh subprocess, one after another."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for traced in ((False, True) if trace else (False,)):
            command = [sys.executable, "-m", __package__,
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(int(traced))]
            completed = subprocess.run(command, capture_output=True,
                                       text=True, cwd=SRC.parent,
                                       timeout=900)
            lines = completed.stdout.splitlines()
            for line in lines[:-2]:
                print(line)
            if completed.returncode != 0:
                status = 1
                print(f"  {workload}: exit status {completed.returncode}")
                if completed.stderr:
                    print(completed.stderr, file=sys.stderr)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    return run_all(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
