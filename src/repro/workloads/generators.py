"""Synthetic workload generators.

Deterministic (seeded) builders for the populations and flow shapes the
benchmarks sweep over: collections of files with size distributions and
metadata, bag-of-steps and chain flows, and random task DAGs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.dfms.scheduler.cost import TaskSpec
from repro.dfms.scheduler.dag import TaskGraph
from repro.dgl.builder import flow_builder
from repro.dgl.model import Flow
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.users import User
from repro.storage import MB

__all__ = [
    "populate_collection", "uniform_sizes",
    "sleep_bag_flow", "sleep_chain_flow", "random_task_graph",
]


def uniform_sizes(rng: random.Random, low: float = MB,
                  high: float = 100 * MB) -> Callable[[], float]:
    """Sampler: uniform object sizes in [low, high]."""
    return lambda: rng.uniform(low, high)


def populate_collection(dgms: DataGridManagementSystem, user: User,
                        collection: str, count: int, resource: str,
                        size: Optional[Callable[[], float]] = None,
                        metadata: Optional[Callable[[int], Dict]] = None,
                        name_prefix: str = "obj"):
    """Generator (sim process body): ingest ``count`` objects.

    Returns the list of created paths. ``size`` is a sampler (default
    1 MB constant); ``metadata`` maps the object index to its AVUs.
    """
    if not dgms.namespace.exists(collection):
        dgms.create_collection(user, collection, parents=True)
    paths: List[str] = []
    for index in range(count):
        path = f"{collection}/{name_prefix}-{index:05d}.dat"
        nbytes = size() if size is not None else float(MB)
        avus = metadata(index) if metadata is not None else None
        yield dgms.put(user, path, nbytes, resource, metadata=avus)
        paths.append(path)
    return paths


def sleep_bag_flow(name: str, count: int, duration: float,
                   parallel: bool = False,
                   max_concurrent: int = 0) -> Flow:
    """A flow of ``count`` independent fixed-duration steps."""
    builder = flow_builder(name)
    if parallel:
        builder.parallel(max_concurrent=max_concurrent)
    for index in range(count):
        builder.step(f"task-{index:05d}", "dgl.sleep", duration=duration)
    return builder.build()


def sleep_chain_flow(name: str, depth: int, duration: float) -> Flow:
    """A maximally nested chain: one step per nesting level (ablation A1)."""
    inner = flow_builder(f"{name}-level-{depth - 1}").step(
        "work", "dgl.sleep", duration=duration)
    for level in range(depth - 2, -1, -1):
        outer = flow_builder(f"{name}-level-{level}")
        outer.subflow(inner)
        inner = outer
    return inner.build()


def random_task_graph(rng: random.Random, count: int) -> TaskGraph:
    """A random layered DAG of ``count`` tasks (for HEFT benchmarks).

    Each task runs for 10–100 s. Each earlier task feeds each later one
    10 MB with probability 0.25; edges only point from earlier to later
    tasks, so the graph is acyclic by construction.
    """
    graph = TaskGraph()
    names = [f"task-{index:04d}" for index in range(count)]
    for name in names:
        graph.add_task(TaskSpec(name=name, duration=rng.uniform(10.0, 100.0)))
    for i, producer in enumerate(names):
        for consumer in names[i + 1:]:
            if rng.random() < 0.25:
                graph.add_edge(producer, consumer, nbytes=10 * MB)
    return graph
