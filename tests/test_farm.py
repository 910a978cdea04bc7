"""The seed-farm runner: ordering, determinism, and failure surfacing.

``run_farm``'s whole contract is that it behaves exactly like the list
comprehension it replaces — same results, same order, same (first) error
— whichever path it picks. The tests force a path with the ``farm_cores``
fixture (one core runs inline, two pool) and compare the pooled path
against that serial definition. Task functions live at module level
because they must pickle across the process boundary.
"""

import json

import pytest

from repro.farm import FarmWorkerError, run_farm, runner
from repro.workloads import run_chaos_sweep


def square(n, offset=0):
    return n * n + offset


def slow_for_early_items(n):
    # Earlier items sleep longer, so with 2+ workers completion order is
    # the *reverse* of submission order — results must not care.
    import time
    time.sleep(0.05 if n < 2 else 0.0)
    return n


def explode_on(n, bad=()):
    if n in bad:
        raise ValueError(f"boom on {n}")
    return n


def kill_worker(n):
    if n == 1:
        import os
        os._exit(13)  # simulate a hard crash: no exception, no report
    return n


def no_pool(*args, **kwargs):
    raise AssertionError("run_farm built a process pool")


# -- ordering and equivalence ----------------------------------------------

def test_results_in_item_order_serial_and_pooled(farm_cores):
    items = list(range(8))
    expected = [square(i) for i in items]
    farm_cores(1)
    assert run_farm(square, items) == expected
    farm_cores(2)
    assert run_farm(square, items) == expected


def test_completion_order_does_not_leak_into_results(farm_cores):
    farm_cores(2)
    items = list(range(4))
    assert run_farm(slow_for_early_items, items) == items


def test_kwargs_forwarded_to_every_task(farm_cores):
    farm_cores(2)
    assert run_farm(square, [1, 2, 3, 4],
                    kwargs={"offset": 10}) == [11, 14, 19, 26]


def test_single_item_runs_inline(farm_cores, monkeypatch):
    # One item, or one between the first and the last, runs inline with
    # cores to spare: a pool of one worker would only add its start-up to
    # the serial time.
    farm_cores(8)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    assert run_farm(square, [3]) == [9]
    assert run_farm(square, [3, 4]) == [9, 16]
    assert run_farm(square, [3, 4, 5]) == [9, 16, 25]


def test_cheap_sweep_never_builds_a_pool(monkeypatch):
    # Four cores, so only the payback estimate keeps this sweep inline.
    monkeypatch.setattr(runner, "default_jobs", lambda: 4)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    items = list(range(1000))
    assert run_farm(square, items) == [square(n) for n in items]


def test_empty_items():
    assert run_farm(square, []) == []


# -- failure surfacing ------------------------------------------------------

@pytest.mark.parametrize("cores", [1, 2])
def test_task_failure_names_item_and_carries_traceback(farm_cores, cores):
    farm_cores(cores)
    with pytest.raises(FarmWorkerError) as excinfo:
        run_farm(explode_on, [0, 1, 2, 3], kwargs={"bad": (1,)})
    err = excinfo.value
    assert err.item == 1
    assert err.index == 1
    assert "ValueError" in err.worker_traceback
    assert "boom on 1" in err.worker_traceback


def test_first_failing_item_in_item_order_wins(farm_cores):
    # Two items fail, one in each worker's chunk (1, 3 and 2, 4); the
    # error must deterministically name the earlier, whichever chunk
    # holds it and whichever worker finishes first.
    farm_cores(2)
    for bad, first in (((2, 3), 2), ((1, 2), 1)):
        with pytest.raises(FarmWorkerError) as excinfo:
            run_farm(explode_on, [0, 1, 2, 3, 4], kwargs={"bad": bad})
        assert excinfo.value.item == first


def test_failure_deep_in_a_chunk_names_its_own_item(farm_cores):
    # Item 5 is the third of its worker's chunk (1, 3, 5); 0 and 7 run
    # inline.
    farm_cores(2)
    with pytest.raises(FarmWorkerError) as excinfo:
        run_farm(explode_on, list(range(8)), kwargs={"bad": (5,)})
    assert (excinfo.value.item, excinfo.value.index) == (5, 5)


def test_hard_worker_death_is_surfaced(farm_cores):
    farm_cores(2)
    with pytest.raises(FarmWorkerError) as excinfo:
        run_farm(kill_worker, [0, 1, 2, 3])
    assert excinfo.value.index >= 1
    assert excinfo.value.__cause__ is not None


# -- the chaos sweep on the farm -------------------------------------------

def test_chaos_sweep_pooled_matches_serial_bit_for_bit(farm_cores):
    seeds = [0, 1, 2, 3]
    farm_cores(1)
    serial = run_chaos_sweep(seeds=seeds)
    farm_cores(2)
    pooled = run_chaos_sweep(seeds=seeds)
    assert [r.seed for r in pooled] == seeds
    for a, b in zip(serial, pooled):
        assert repr(a.signature) == repr(b.signature)
        assert a.ok == b.ok
        assert a.violations == b.violations


# -- CLI --------------------------------------------------------------------

def test_cli_farm_smoke(capsys, tmp_path, farm_cores):
    from repro.cli import main

    farm_cores(1)
    out_path = tmp_path / "farm.json"
    assert main(["farm", "--seeds", "0,1", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "2 seeds in " in out
    assert "invariants" in out
    payload = json.loads(out_path.read_text())
    assert payload["seeds"] == [0, 1]
    assert [r["seed"] for r in payload["reports"]] == [0, 1]
    assert all(r["ok"] for r in payload["reports"])


def test_cli_farm_seed_count_form(capsys, farm_cores):
    from repro.cli import main

    farm_cores(2)
    assert main(["farm", "--seeds", "3"]) == 0
    assert "3 seeds in " in capsys.readouterr().out


# -- sizing -----------------------------------------------------------------

class _FakeClock:
    """A clock that only the tasks advance: item ``i`` costs ``cost(i)``."""

    def __init__(self, cost):
        self.now = 0.0
        self.cost = cost

    def perf_counter(self):
        return self.now

    def run(self, n):
        self.now += self.cost(n)
        return n


def test_rising_sweep_is_sized_from_its_first_and_last_items(monkeypatch):
    # Ten items whose cost rises from 10 ms to 190 ms, like a saturation
    # curve's loads: at the first item's pace the other nine would take
    # 0.09 s and stay inline, but at the mean of the first and the last
    # the middle eight take 0.8 s, past the payback, so they pool.
    clock = _FakeClock(lambda n: 0.01 + 0.02 * n)
    pooled = []

    def fake_pool(task, items, kwargs, workers):
        pooled.append((items[1:-1], workers))
        return [task(item, **kwargs) for item in items[1:-1]]

    monkeypatch.setattr(runner, "time", clock)
    monkeypatch.setattr(runner, "default_jobs", lambda: 2)
    monkeypatch.setattr(runner, "_run_pooled", fake_pool)
    items = list(range(10))
    assert 9 * clock.cost(0) < runner.POOL_PAYBACK_S
    assert run_farm(clock.run, items) == items
    assert pooled == [(items[1:-1], 2)]
    # The same items listed cheapest-last stay sized by both ends: still
    # pooled, and still in item order.
    pooled.clear()
    assert run_farm(clock.run, items[::-1]) == items[::-1]
    assert pooled == [(items[::-1][1:-1], 2)]


def test_last_item_failure_yields_to_an_earlier_one(farm_cores):
    # The last item runs second, but an earlier failing item still wins.
    farm_cores(2)
    for bad, first in (((5, 2), 2), ((5,), 5)):
        with pytest.raises(FarmWorkerError) as excinfo:
            run_farm(explode_on, list(range(6)), kwargs={"bad": bad})
        assert (excinfo.value.item, excinfo.value.index) == (first, first)
