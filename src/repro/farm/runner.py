"""The multiprocess farm runner.

One deliberately small primitive: :func:`run_farm` maps a picklable task
over a list of items and returns the results *in item order*, as if a
plain list comprehension had run, inline or on a process pool as the
measured cost of its first and last items says. Processes, not threads:
a seed run is pure Python burning CPU in the sim kernel, so threads
serialize on the GIL.

Sweeps are often listed in order of cost: a saturation curve's loads
rise, the sanitizer runs its slow chaos proofs before its quick
federation ones. So the first and the last item both run inline, timed,
and the items between them are estimated at the mean of the two.

Each worker gets one strided chunk (item ``i`` of the middle goes to
worker ``i % w``) and sends its results home at once, so no item pays a
round trip of its own, and a sweep ordered by kind still splits evenly.

A task that raises stops its chunk; the parent raises
:class:`FarmWorkerError` for the first failing item in item order, with
the remote traceback. A worker that dies without reporting (segfault, OOM
kill) names the lowest index in its chunk, with the pool's error as cause.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import ReproError

__all__ = ["FarmWorkerError", "POOL_PAYBACK_S", "default_jobs", "run_farm"]

#: Estimated serial seconds of the items between the first and the last
#: below which they run inline, because a pool would not pay for itself.
#: Measured on a 2-vCPU host with chaos sweeps, each sample a fresh
#: process, nine alternating pairs per size: two workers with strided
#: chunks lost all nine pairs at 30 seeds (0.24 s inline), won five of
#: nine at 45 (0.36 s) and all nine at 60 (0.49 s). On that flat sweep an
#: estimate from the first item alone read about 1.3x the real serial
#: time, since the first seed also warms caches.
POOL_PAYBACK_S = 0.5


class FarmWorkerError(ReproError):
    """A farm task failed (or its worker died) on one item.

    ``item`` and ``index`` identify the failing unit of work — for a seed
    sweep, the seed to replay serially — and ``worker_traceback`` carries
    the traceback text from inside the worker process, since the original
    exception's own traceback cannot cross the process boundary.
    """

    def __init__(self, message: str, item: Any = None, index: int = -1,
                 worker_traceback: str = "") -> None:
        super().__init__(message)
        self.item = item
        self.index = index
        self.worker_traceback = worker_traceback


def default_jobs() -> int:
    """The CPUs this process may run on (CPU affinity where the platform
    has it: a containerized runner often sees fewer cores than exist)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def _task_failed(items: List[Any], index: int, exc_repr: str,
                 text: str) -> FarmWorkerError:
    return FarmWorkerError(
        f"farm task failed on item {items[index]!r} (index {index}): "
        f"{exc_repr}", item=items[index], index=index,
        worker_traceback=text)


def _run_inline(task: Callable[..., Any], items: List[Any], index: int,
                kwargs: dict) -> Any:
    try:
        return task(items[index], **kwargs)
    except Exception as exc:
        raise _task_failed(items, index, repr(exc),
                           traceback.format_exc()) from exc


def _run_chunk(task: Callable[..., Any], chunk: List[Any],
               kwargs: dict) -> tuple:
    """Worker side: ``(values, failure)`` for ``task`` over ``chunk``,
    stopping at the first failure, which is ``None`` or the ``(repr,
    traceback text)`` of the item after ``values``. Never raises for a
    task, so the parent can compare chunks."""
    values = []
    for item in chunk:
        try:
            values.append(task(item, **kwargs))
        except Exception as exc:
            return values, (repr(exc), traceback.format_exc())
    return values, None


def _mp_context():
    """Fork where available (cheap, inherits imports); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _run_pooled(task: Callable[..., Any], items: List[Any], kwargs: dict,
                workers: int) -> List[Any]:
    """``task`` over ``items[1:-1]``, one strided chunk per worker; the
    results in item order."""
    rest = items[1:-1]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=_mp_context()) as pool:
        futures = [pool.submit(_run_chunk, task, rest[offset::workers],
                               kwargs) for offset in range(workers)]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:
                # The worker died without reporting, the pool broke, or
                # the chunk would not pickle: the error names its chunk.
                outcomes.append(exc)
    results: List[Any] = [None] * len(rest)
    failures = []
    for offset, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            failures.append((1 + offset, outcome))
        elif outcome[1] is None:
            results[offset::workers] = outcome[0]
        else:
            failures.append((1 + offset + len(outcome[0]) * workers,
                             outcome[1]))
    if failures:
        index, cause = min(failures, key=lambda failure: failure[0])
        if isinstance(cause, Exception):
            raise FarmWorkerError(
                f"farm worker died on item {items[index]!r} "
                f"(index {index}): {cause!r}", item=items[index],
                index=index) from cause
        raise _task_failed(items, index, *cause)
    return results


def _timed_inline(task: Callable[..., Any], items: List[Any], index: int,
                  kwargs: dict) -> tuple:
    """``(result, seconds)`` of item ``index`` run inline; the result is
    the :class:`FarmWorkerError` itself if the task raised."""
    # Wall clock, deliberately: it times one item only to decide where
    # the others run, and no result depends on it.
    started = time.perf_counter()  # dgf: noqa[DGF001]: host-side sizing of a sweep, outside every simulation; it picks inline or pooled, never a result
    try:
        result = _run_inline(task, items, index, kwargs)
    except FarmWorkerError as exc:
        result = exc
    return result, time.perf_counter() - started  # dgf: noqa[DGF001]: the other end of the same host-side sizing read


def run_farm(task: Callable[..., Any], items: Iterable[Any],
             kwargs: Optional[dict] = None) -> List[Any]:
    """``[task(item, **kwargs) for item in items]``: the same values in
    the same order. The first and the last item run inline, timed; the
    items between them go to ``min(default_jobs(), len(items) - 2)``
    worker processes when that is two or more and they would take
    :data:`POOL_PAYBACK_S` or more at the mean pace of the first and the
    last; otherwise they run inline too. ``task`` must pickle
    (module-level).

    Raises :class:`FarmWorkerError` if any task raised or any worker
    died; the first failing item in item order wins, so the error is
    itself deterministic.
    """
    items = list(items)
    kwargs = kwargs or {}
    if not items:
        return []
    first, first_s = _timed_inline(task, items, 0, kwargs)
    if isinstance(first, FarmWorkerError):
        raise first
    if len(items) == 1:
        return [first]
    last, last_s = _timed_inline(task, items, len(items) - 1, kwargs)
    middle = len(items) - 2
    workers = min(default_jobs(), middle)
    if workers > 1 and middle * (first_s + last_s) / 2 >= POOL_PAYBACK_S:
        between = _run_pooled(task, items, kwargs, workers)
    else:
        between = [_run_inline(task, items, index, kwargs)
                   for index in range(1, len(items) - 1)]
    if isinstance(last, FarmWorkerError):
        raise last
    return [first, *between, last]
