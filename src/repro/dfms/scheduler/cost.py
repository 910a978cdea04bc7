"""The scheduling cost model.

"The cost of executing each task at a domain could be based on multiple
parameters including the amount of data moved, the number of CPU cycles
that would be left idle in the grid, the clock time taken to execute all
the tasks, the bandwidth utilized" (§2.3). This module turns that sentence
into numbers: a :class:`CostModel` estimates, for one task on one compute
resource, the staging time (data moved over the topology from the nearest
replica), the execution time (duration / speed), a queue-wait proxy, and an
idle-capacity penalty. The weights are explicit so the A2 ablation can zero
them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import SchedulingError
from repro.dfms.compute import ComputeResource
from repro.grid.dgms import DataGridManagementSystem

__all__ = ["TaskSpec", "CostBreakdown", "CostWeights", "CostModel"]


@dataclass(frozen=True)
class TaskSpec:
    """What the scheduler needs to know about one task."""

    name: str
    duration: float                      # reference seconds on speed 1.0
    input_paths: Sequence[str] = ()
    output_size: float = 0.0
    requirements: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SchedulingError(f"task duration cannot be negative: "
                                  f"{self.duration}")


@dataclass(frozen=True)
class CostBreakdown:
    """Component costs of one (task, resource) placement."""

    stage_in_seconds: float
    stage_out_seconds: float
    compute_seconds: float
    queue_wait_seconds: float
    load_penalty_seconds: float
    bytes_moved: float

    @property
    def data_seconds(self) -> float:
        return self.stage_in_seconds + self.stage_out_seconds


@dataclass
class CostWeights:
    """Relative importance of each cost component (ablation knobs)."""

    data: float = 1.0
    compute: float = 1.0
    queue: float = 1.0
    load: float = 1.0


class CostModel:
    """Estimates placement costs against the live grid state."""

    def __init__(self, dgms: DataGridManagementSystem,
                 weights: Optional[CostWeights] = None) -> None:
        self.dgms = dgms
        self.weights = weights or CostWeights()

    # -- component estimates ------------------------------------------------

    def stage_in_seconds(self, task: TaskSpec,
                         compute: ComputeResource) -> float:
        """Time to move every input from its nearest replica to the task."""
        total = 0.0
        for path in task.input_paths:
            obj = self.dgms.namespace.resolve_object(path)
            replicas = obj.good_replicas()
            if not replicas:
                raise SchedulingError(f"{path} has no good replicas to stage")
            total += self.dgms.nearest_replica(obj, compute.domain,
                                               replicas)[1]
        return total

    def bytes_moved(self, task: TaskSpec, compute: ComputeResource) -> float:
        """Bytes that must cross the WAN for this placement."""
        moved = 0.0
        for path in task.input_paths:
            obj = self.dgms.namespace.resolve_object(path)
            if not any(r.domain == compute.domain
                       for r in obj.good_replicas()):
                moved += obj.size
        return moved

    def stage_out_seconds(self, task: TaskSpec,
                          compute: ComputeResource) -> float:
        """Crude output-write estimate: local write at disk-class bandwidth."""
        if task.output_size <= 0:
            return 0.0
        disk_bandwidth = 50 * 1024 * 1024.0
        return task.output_size / disk_bandwidth

    def queue_wait_seconds(self, task: TaskSpec,
                           compute: ComputeResource) -> float:
        """Proxy for wait time: queued tasks ahead, each of this task's size."""
        try:
            queued = compute.queue_length
            busy = compute.cores_in_use
        except SchedulingError:
            # Detached resource (static planning before attach): no queue info.
            return 0.0
        waiting_slots = max(0, busy + queued - compute.cores + 1)
        return waiting_slots * compute.run_time(task.duration)

    def load_penalty_seconds(self, task: TaskSpec,
                             compute: ComputeResource) -> float:
        """Penalty that steers work toward idle capacity (§2.3's idle-CPU
        term, inverted: loaded resources cost more)."""
        try:
            in_use = compute.cores_in_use
        except SchedulingError:
            return 0.0
        load = in_use / compute.cores
        return load * compute.run_time(task.duration)

    # -- full estimate ----------------------------------------------------------

    def estimate(self, task: TaskSpec,
                 compute: ComputeResource) -> CostBreakdown:
        """Component estimates for placing ``task`` on ``compute``."""
        return CostBreakdown(
            stage_in_seconds=self.stage_in_seconds(task, compute),
            stage_out_seconds=self.stage_out_seconds(task, compute),
            compute_seconds=compute.run_time(task.duration),
            queue_wait_seconds=self.queue_wait_seconds(task, compute),
            load_penalty_seconds=self.load_penalty_seconds(task, compute),
            bytes_moved=self.bytes_moved(task, compute))

    def total(self, task: TaskSpec, compute: ComputeResource) -> float:
        """Weighted scalar cost (what the heuristics minimize)."""
        parts = self.estimate(task, compute)
        weights = self.weights
        return (weights.data * parts.data_seconds
                + weights.compute * parts.compute_seconds
                + weights.queue * parts.queue_wait_seconds
                + weights.load * parts.load_penalty_seconds)
