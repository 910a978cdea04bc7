"""Wiring telemetry into a deployment.

Instrumentation points live inside each subsystem, guarded on
``env.telemetry is None`` — this module is only the attach surface:

* :func:`attach_telemetry` — create a session on one environment and
  (optionally) enroll it with a DfMS server's engine, covering all six
  instrumented subsystems.
* :func:`instrument_scenario` — one-call convenience for the workload
  scenario builders.

Nothing here (or anywhere) turns telemetry on implicitly: the default is
no session at all, and the instrumentation guards keep that default
effectively free (``benchmarks/test_e19_telemetry.py`` measures both
modes).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.telemetry.core import Telemetry

__all__ = ["attach_telemetry", "instrument_scenario",
           "attach_observability", "Observability"]


def attach_telemetry(env, server=None) -> Telemetry:
    """Create a telemetry session and wire it to a deployment.

    ``env`` gains a ``telemetry`` attribute the sim kernel, DfMS engine,
    ILM manager, trigger manager, transfer service and every DGMS's
    catalog queries all read when they record. When a ``server`` is
    given, the session enrolls with its engine as a row reader: its
    entry sits on the listener list
    :class:`~repro.dfms.monitoring.ExecutionMonitor` uses, and the engine
    writes each event as a journal row the session folds at export.
    Attaching twice returns the existing session.
    """
    existing: Optional[Telemetry] = getattr(env, "telemetry", None)
    telemetry = existing if existing is not None else Telemetry(env)
    env.telemetry = telemetry
    if server is not None:
        telemetry.enroll(server.engine)
    return telemetry


def instrument_scenario(scenario) -> Telemetry:
    """Attach telemetry to a :class:`~repro.workloads.scenarios.Scenario`."""
    return attach_telemetry(scenario.env, server=scenario.server)


class Observability(NamedTuple):
    """The full observability stack attached to one environment."""

    telemetry: Telemetry
    recorder: object   # FlightRecorder
    slo: object        # SLOEngine


def attach_observability(env, server=None,
                         capacity: Optional[int] = None,
                         probes=None,
                         dump_path: Optional[str] = None) -> Observability:
    """Attach telemetry plus the flight recorder and SLO engine.

    Builds (or reuses) the telemetry session, hangs a
    :class:`~repro.telemetry.recorder.FlightRecorder` off it (the session
    feeds it the event log, engine events and completed transfers), and
    constructs an :class:`~repro.telemetry.slo.SLOEngine` over the same
    session. Both are strictly read-only over the simulation —
    attaching them cannot move a float (the E23 benchmark pins the
    20-seed chaos fingerprint with and without). Idempotent: a second
    call returns the existing stack (``probes`` and ``capacity`` are
    ignored then).
    """
    from repro.telemetry.recorder import DEFAULT_CAPACITY, FlightRecorder
    from repro.telemetry.slo import SLOEngine

    telemetry = attach_telemetry(env, server=server)
    recorder = telemetry.recorder
    if recorder is None:
        recorder = FlightRecorder(
            telemetry,
            capacity=DEFAULT_CAPACITY if capacity is None else capacity,
            dump_path=dump_path)
        telemetry.attach_recorder(recorder)
    slo = telemetry.slo
    if slo is None:
        slo = SLOEngine(telemetry, probes=probes, server=server)
        telemetry.slo = slo
    return Observability(telemetry, recorder, slo)
