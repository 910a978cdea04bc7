"""Unit tests for simulated physical storage resources."""

import random

import pytest

from repro.errors import CapacityExceeded, StorageError, StorageFailure
from repro.sim import RandomStreams
from repro.storage import (
    FailureInjector,
    GB,
    MB,
    PhysicalStorageResource,
    StorageClass,
)


def make_disk(capacity=10 * GB, failures=None):
    return PhysicalStorageResource(
        "disk-1", StorageClass.DISK, capacity, failures=failures)


def test_capacity_must_be_positive():
    with pytest.raises(StorageError):
        PhysicalStorageResource("x", StorageClass.DISK, 0)


def test_write_allocates_and_returns_duration():
    disk = make_disk()
    duration = disk.write("obj-1", 100 * MB)
    assert duration > 0
    assert disk.holds("obj-1")
    assert disk.used_bytes == 100 * MB
    assert disk.free_bytes == 10 * GB - 100 * MB


def test_duplicate_write_rejected():
    disk = make_disk()
    disk.write("obj-1", MB)
    with pytest.raises(StorageError, match="already holds"):
        disk.write("obj-1", MB)


def test_write_beyond_capacity_rejected():
    disk = make_disk(capacity=1 * GB)
    with pytest.raises(CapacityExceeded):
        disk.write("big", 2 * GB)
    assert not disk.holds("big")
    assert disk.used_bytes == 0


@pytest.mark.parametrize("size", [float("nan"), float("inf"), -1.0])
def test_size_must_be_finite_and_non_negative(size):
    disk = make_disk(capacity=1 * GB)
    disk.write("obj-1", MB)
    with pytest.raises(StorageError, match="finite"):
        disk.write("bad", size)
    assert not disk.holds("bad")
    assert disk.used_bytes == MB
    # The accounting is intact: an over-capacity write still fails.
    with pytest.raises(CapacityExceeded):
        disk.write("big", 2 * GB)
    assert disk.used_bytes == MB


def test_infinite_size_rejected_on_infinite_capacity():
    disk = make_disk(capacity=float("inf"))
    with pytest.raises(StorageError, match="finite"):
        disk.write("bad", float("inf"))
    assert disk.used_bytes == 0
    assert disk.free_bytes == float("inf")


def test_emptied_resource_reads_exactly_zero():
    disk = make_disk()
    sizes = {"a": 0.1 * MB, "b": 0.2 * MB, "c": 0.3 * MB}
    for object_id, size in sizes.items():
        disk.write(object_id, size)
    for object_id in sizes:
        disk.delete(object_id)
    assert disk.used_bytes == 0
    disk.write("b", sizes["b"])
    assert disk.used_bytes == sizes["b"]


def test_used_bytes_is_the_insertion_order_sum():
    # The running total must equal sum() over the allocations exactly,
    # in value and type, after any mix of writes, deletes and operations
    # that raise: offline, duplicate, over capacity or injected (sizes
    # with many significant bits make any rounding difference show).
    rng = random.Random(7)
    injector = FailureInjector(
        probability=0.1, rng=RandomStreams(seed=7).stream("failures"))
    for _ in range(40):
        disk = make_disk(capacity=GB, failures=injector)
        model = {}
        for _ in range(120):
            object_id = f"obj-{rng.randrange(12)}"
            disk.online = rng.random() < 0.95
            try:
                if object_id in model and rng.random() < 0.5:
                    disk.delete(object_id)
                    del model[object_id]
                else:
                    size = rng.random() * 0.2 * GB
                    disk.write(object_id, size)
                    model[object_id] = size
            except StorageError:
                pass
            used = disk.used_bytes
            assert used == sum(model.values())
            assert type(used) is type(sum(model.values()))
            assert disk.free_bytes == GB - sum(model.values())


def test_read_unknown_object_rejected():
    disk = make_disk()
    with pytest.raises(StorageError, match="does not hold"):
        disk.read("ghost")


def test_delete_frees_space():
    disk = make_disk()
    disk.write("obj-1", GB)
    disk.delete("obj-1")
    assert not disk.holds("obj-1")
    assert disk.used_bytes == 0


def test_offline_resource_refuses_operations():
    disk = make_disk()
    disk.write("obj-1", MB)
    disk.online = False
    with pytest.raises(StorageError, match="offline"):
        disk.read("obj-1")
    with pytest.raises(StorageError, match="offline"):
        disk.write("obj-2", MB)


def test_stats_track_operations():
    disk = make_disk()
    disk.write("a", MB)
    disk.write("b", 2 * MB)
    disk.read("a")
    disk.delete("b")
    assert disk.stats.writes == 2
    assert disk.stats.reads == 1
    assert disk.stats.deletes == 1
    assert disk.stats.bytes_written == 3 * MB
    assert disk.stats.bytes_read == MB
    assert disk.stats.busy_seconds > 0


def test_read_time_scales_with_object_size():
    disk = make_disk()
    disk.write("small", MB)
    disk.write("large", 100 * MB)
    assert disk.read("large") > disk.read("small")


def test_retention_cost_of_current_contents():
    disk = make_disk()
    assert disk.retention_cost(3600.0) == 0.0
    disk.write("obj", GB)
    assert disk.retention_cost(3600.0) > 0.0


def test_deterministic_failure_injection():
    injector = FailureInjector(fail_ops=[2])
    disk = make_disk(failures=injector)
    disk.write("a", MB)                       # op 1: fine
    with pytest.raises(StorageFailure):
        disk.write("b", MB)                   # op 2: injected fault
    assert not disk.holds("b")                # failed write leaves no residue
    assert injector.failures_injected == 1


def test_probabilistic_failure_injection_is_seeded():
    def run():
        rng = RandomStreams(seed=11).stream("failures")
        injector = FailureInjector(probability=0.5, rng=rng)
        disk = make_disk(failures=injector)
        outcomes = []
        for i in range(20):
            try:
                disk.write(f"obj-{i}", MB)
                outcomes.append(True)
            except StorageFailure:
                outcomes.append(False)
        return outcomes

    first, second = run(), run()
    assert first == second
    assert any(first) and not all(first)


def test_injector_requires_rng_for_probability():
    with pytest.raises(ValueError):
        FailureInjector(probability=0.1)
    with pytest.raises(ValueError):
        FailureInjector(probability=1.5, rng=RandomStreams(0).stream("x"))
