"""Every chaos sweep variant replays to its pinned fingerprint.

The two pinned files under ``benchmarks/`` are the replay contract: the
20-seed chaos sweep and the 10-seed federation sweep must hash to them
bit for bit, and attaching a read-only layer (the cache tier, the
observability stack, the schedule sanitizer) may not move a float. The
seed lists are explicit and the sweeps run serially, so neither
``CHAOS_SEEDS`` nor the host's core count can shrink or reorder them.
"""

from pathlib import Path

import pytest

from repro.federation import run_federation_sweep, sweep_fingerprint
from repro.workloads import run_chaos_sweep

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

_CHAOS = (run_chaos_sweep, range(20), "chaos_sweep_baseline.sha256")
_FEDERATION = (run_federation_sweep, range(10),
               "federation_chaos_baseline.sha256")

SWEEPS = {
    "chaos-plain": (_CHAOS, {}),
    "chaos-cache": (_CHAOS, {"cache": True}),
    "chaos-observe": (_CHAOS, {"observe": True}),
    "chaos-sanitize": (_CHAOS, {"sanitize": True}),
    "federation-plain": (_FEDERATION, {}),
    "federation-sanitize": (_FEDERATION, {"sanitize": True}),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_its_pinned_fingerprint(name):
    (sweep, seeds, baseline), kwargs = SWEEPS[name]
    reports = sweep(seeds=list(seeds), jobs=1, **kwargs)
    assert all(report.ok for report in reports), [
        (report.seed, report.violations) for report in reports
        if not report.ok]
    pinned = (_BENCHMARKS / baseline).read_text().strip()
    assert sweep_fingerprint(reports) == pinned
