"""Tests for zone-scoped chaos: the federation fault driver, random
zone schedules, and the federation survival invariants."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    BridgeDegradation,
    FaultSchedule,
    StorageOutage,
    ZoneOutage,
    attach_faults,
)
from repro.federation import (
    FederationFaultDriver,
    attach_federation_faults,
    federation_fault_schedule,
    federation_scenario,
    run_federation_chaos,
    run_federation_sweep,
    sweep_fingerprint,
)
from repro.sim import RandomStreams


# -- event validation --------------------------------------------------------


def test_zone_events_validate_their_fields():
    with pytest.raises(FaultError):
        ZoneOutage(0.0, -1.0, "z0")
    with pytest.raises(FaultError):
        BridgeDegradation(0.0, 1.0, "z0", "z1", factor=1.5)
    event = BridgeDegradation(0.0, 1.0, "z1", "z0", factor=0.5)
    assert event.target == "z0~~z1"
    assert ZoneOutage(0.0, 1.0, "z0").target == "z0"


def test_plain_fault_driver_rejects_zone_events():
    scenario = federation_scenario(seed=0)
    with pytest.raises(FaultError, match="FederationFaultDriver"):
        attach_faults(scenario.zones["z0"],
                      FaultSchedule([ZoneOutage(1.0, 2.0, "z0")]))


def test_federation_driver_rejects_non_zone_events_and_unknowns():
    scenario = federation_scenario(seed=0)
    federation = scenario.federation
    with pytest.raises(FaultError, match="one datagrid"):
        attach_federation_faults(
            federation, FaultSchedule([StorageOutage(1.0, 2.0, "z0-d0-disk-1")]))
    with pytest.raises(FaultError, match="unknown zone"):
        attach_federation_faults(
            federation, FaultSchedule([ZoneOutage(1.0, 2.0, "ghost")]))
    with pytest.raises(FaultError, match="no bridge"):
        attach_federation_faults(
            federation,
            FaultSchedule([BridgeDegradation(1.0, 2.0, "z0", "z0x")]))
    driver = attach_federation_faults(federation, FaultSchedule())
    with pytest.raises(FaultError, match="already armed"):
        driver.arm()


# -- mechanics ---------------------------------------------------------------


def test_zone_outage_holds_and_releases_the_whole_zone():
    scenario = federation_scenario(seed=0)
    env = scenario.env
    z1 = scenario.zones["z1"]
    now = env.now   # population advanced the clock; schedule relative
    driver = attach_federation_faults(
        scenario.federation,
        FaultSchedule([ZoneOutage(now + 1.0, 2.0, "z1")]))

    seen = {}

    def probe(_event):
        seen["online"] = [z1.resources.physical(name).physical.online
                          for name in sorted(z1.resources.physical_names())]
        seen["links"] = len(z1.topology.links)

    timer = env.timeout(2.0)   # mid-window
    timer.callbacks.append(probe)
    env.run()
    assert seen["online"] == [False, False]
    assert seen["links"] == 0
    # Everything restored after the window, and both transitions logged.
    assert all(z1.resources.physical(name).physical.online
               for name in z1.resources.physical_names())
    assert len(z1.topology.links) == 1
    assert driver.begun == 1 and driver.ended == 1
    assert [(phase, kind) for _, phase, kind, _ in driver.log] == \
        [("begin", "zone-outage"), ("end", "zone-outage")]
    assert driver.open_faults == 0


def test_overlapping_zone_outages_release_exactly_once():
    scenario = federation_scenario(seed=0)
    env = scenario.env
    z0 = scenario.zones["z0"]
    now = env.now
    driver = attach_federation_faults(
        scenario.federation,
        FaultSchedule([ZoneOutage(now + 1.0, 4.0, "z0"),
                       ZoneOutage(now + 2.0, 1.5, "z0")]))

    seen = {}

    def probe(_event):
        # First outage still open after the second ended: still down.
        seen["online"] = z0.resources.physical(
            "z0-d0-disk-1").physical.online

    timer = env.timeout(4.0)
    timer.callbacks.append(probe)
    env.run()
    assert seen["online"] is False
    assert z0.resources.physical("z0-d0-disk-1").physical.online
    assert len(z0.topology.links) == 1
    assert driver.begun == 2 and driver.ended == 2


def test_bridge_degradation_composes_and_restores():
    scenario = federation_scenario(seed=0)
    env = scenario.env
    bridge = scenario.federation.bridge("z0", "z1")
    base = bridge.effective_bandwidth_bps
    now = env.now
    attach_federation_faults(
        scenario.federation,
        FaultSchedule([BridgeDegradation(now + 1.0, 3.0, "z0", "z1",
                                         factor=0.5),
                       BridgeDegradation(now + 2.0, 1.0, "z0", "z1",
                                         factor=0.25)]))

    seen = {}

    def probe(_event):
        seen["bandwidth"] = bridge.effective_bandwidth_bps

    timer = env.timeout(2.5)   # both windows open
    timer.callbacks.append(probe)
    env.run()
    assert seen["bandwidth"] == pytest.approx(base * 0.5 * 0.25)
    assert bridge.effective_bandwidth_bps == pytest.approx(base)


# -- random schedules --------------------------------------------------------


def test_federation_fault_schedule_is_seeded_and_zone_scoped():
    scenario = federation_scenario(seed=7)
    schedule = federation_fault_schedule(
        RandomStreams(7), scenario.federation, horizon=50.0, n_events=8)
    replay = federation_fault_schedule(
        RandomStreams(7), scenario.federation, horizon=50.0, n_events=8)
    assert schedule.events == replay.events
    assert len(schedule) == 8
    zones = set(scenario.federation.zones())
    for event in schedule:
        assert event.kind in ("zone-outage", "bridge-degradation")
        if isinstance(event, ZoneOutage):
            assert event.zone in zones
        else:
            assert event.ends <= zones
        assert event.end <= 50.0 * 0.95 + 50.0 * 0.2
    with pytest.raises(FaultError):
        federation_fault_schedule(RandomStreams(7), scenario.federation,
                                  horizon=-1.0)


# -- the full chaos harness --------------------------------------------------


def test_chaos_run_holds_every_invariant_and_is_deterministic():
    first = run_federation_chaos(0)
    again = run_federation_chaos(0)
    assert first.ok, first.violations
    assert first.signature == again.signature
    assert first.faults_begun == first.faults_ended > 0
    assert first.copies_attempted == \
        first.copies_completed + first.copies_failed
    assert first.wrong_answers == 0
    assert first.locate_audits > 0


def test_chaos_survives_several_seeds():
    for seed in range(3):
        report = run_federation_chaos(seed)
        assert report.ok, (seed, report.violations)


def test_no_fault_baseline_completes_every_copy():
    report = run_federation_chaos(11, faults=False)
    assert report.ok, report.violations
    assert report.faults_begun == 0
    assert report.copies_failed == 0
    assert report.copies_completed == report.copies_attempted


def test_without_recovery_copies_fail_terminally_not_silently():
    report = run_federation_chaos(0, recovery=False)
    assert report.ok, report.violations   # invariants still hold
    assert report.copies_completed + report.copies_failed == \
        report.copies_attempted


def test_sweep_is_farm_order_independent(farm_cores):
    farm_cores(1)
    serial = run_federation_sweep(seeds=[0, 1, 2, 3])
    farm_cores(2)
    farmed = run_federation_sweep(seeds=[0, 1, 2, 3])
    assert [r.signature for r in serial] == [r.signature for r in farmed]
    assert sweep_fingerprint(serial) == sweep_fingerprint(farmed)


def test_driver_mechanics_compose_with_intra_zone_schedules():
    # A zone outage and an intra-zone storage outage overlap on the same
    # resource; it must come back only when both are over.
    scenario = federation_scenario(seed=0)
    env = scenario.env
    z2 = scenario.zones["z2"]
    now = env.now
    federation_driver = FederationFaultDriver(
        scenario.federation,
        FaultSchedule([ZoneOutage(now + 1.0, 2.0, "z2")]))
    federation_driver.arm()
    # Reuse z2's mechanics driver for the intra-zone schedule so the
    # refcounts are shared.
    mechanics = federation_driver.mechanics["z2"]
    mechanics.schedule = FaultSchedule(
        [StorageOutage(now + 2.0, 3.0, "z2-d0-disk-1")])
    mechanics.arm()

    seen = {}

    def probe(_event):
        seen["after-zone-end"] = z2.resources.physical(
            "z2-d0-disk-1").physical.online

    timer = env.timeout(4.0)   # zone outage over, storage outage open
    timer.callbacks.append(probe)
    env.run()
    assert seen["after-zone-end"] is False
    assert z2.resources.physical("z2-d0-disk-1").physical.online
