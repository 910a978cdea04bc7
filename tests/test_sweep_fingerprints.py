"""Every chaos sweep variant replays to its pinned fingerprint.

The two pinned files under ``benchmarks/`` are the replay contract: the
20-seed chaos sweep and the 10-seed federation sweep must hash to them
bit for bit, and attaching a read-only layer (the cache tier, the
observability stack, the schedule sanitizer) may not move a float. The
seed lists are explicit and the sweeps are forced inline, so the host's
core count cannot change how they run.
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
def test_sweep_matches_its_pinned_fingerprint(name, farm_cores):
    (sweep, seeds, baseline), kwargs = SWEEPS[name]
    farm_cores(1)
    reports = sweep(seeds=list(seeds), **kwargs)
    assert all(report.ok for report in reports), [
        (report.seed, report.violations) for report in reports
        if not report.ok]
    pinned = (_BENCHMARKS / baseline).read_text().strip()
    assert sweep_fingerprint(reports) == pinned
