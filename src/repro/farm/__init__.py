"""Seed farm: run deterministic per-seed sweeps, on all cores when it pays.

Every sweep in this repository — the 20-seed chaos invariant sweep, the
benchmark seed matrices, the sanitizer's permutation proofs, parameter
grids — is a map of one pure function over a list. Each run is
bit-reproducible from its seed (guarded by dgflint and ``run_signature``),
shares nothing with its neighbours, and reports a picklable result, which
makes the whole shape embarrassingly parallel. This package is the one
runner all of those sweeps go through:

* :func:`run_farm` — map a task over items, inline or on a process pool
  as the first item's measured cost says, in item order;
* :func:`default_jobs` — how many cores this process may use;
* :class:`FarmWorkerError` — a task failure, re-raised in the parent
  with the worker's full traceback and the offending item;
* ``repro farm`` (see :mod:`repro.cli`) — the operator entry point.

Determinism contract: ``run_farm(task, items)`` returns exactly
``[task(item) for item in items]`` — same values, same order — whichever
path it took. ``tests/test_farm.py`` holds both paths to that.
"""

from repro.farm.runner import (
    FarmWorkerError,
    default_jobs,
    run_farm,
)

__all__ = ["FarmWorkerError", "default_jobs", "run_farm"]
