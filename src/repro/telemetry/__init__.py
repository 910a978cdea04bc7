"""Unified telemetry: sim-time metrics, tracing spans, structured events.

§2.1 requires a "programmatic API to query and monitor any step in the
datagrid ILM process". This package is that axis for the whole
reproduction: a label-aware metrics registry, hierarchical tracing spans
that nest across simulation processes (flow → step → transfer), and a
structured event log — all clocked on the simulation's virtual time so
telemetry is exactly as deterministic as the run it observes — plus
Prometheus-text and JSONL exporters.

Telemetry is opt-in: nothing is recorded until
:func:`attach_telemetry` (or :func:`instrument_scenario`) hangs a
:class:`Telemetry` session off the environment. Instrumented subsystems —
the sim kernel, DfMS engine, ILM manager, trigger manager, network
transfer service, and catalog query planner — each guard on the session's
absence, so the disabled mode costs one branch per instrumentation point.

On top of the session, :func:`attach_observability` adds the operator
layer (``docs/observability.md``): a :class:`FlightRecorder` — a bounded
ring of causally-annotated recent records that auto-dumps deterministic
JSONL on kernel deadlock, chaos invariant violation, or demand — and an
:class:`SLOEngine` evaluating declarative probes (fault windows,
windowed p99 transfer latency, recovery pressure, queue depth,
execution stalls) on sim-time windows. Both are strictly read-only:
``benchmarks/test_e23_observability.py`` holds the 20-seed chaos sweep
bit-identical with the stack attached. :mod:`repro.telemetry.trace` is
the read side — parse any export or dump and reconstruct one
execution's causal story (``repro trace``).
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.events import EventLog, TelemetryRecord
from repro.telemetry.exporters import (
    histogram_summaries,
    jsonl_lines,
    merge_jsonl,
    prometheus_text,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.instrument import (
    Observability,
    attach_observability,
    attach_telemetry,
    instrument_scenario,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.recorder import FlightRecord, FlightRecorder
from repro.telemetry.slo import (
    Alert,
    SLOEngine,
    default_probes,
    fault_coverage,
)
from repro.telemetry.tracing import Span, SpanKind, Tracer

__all__ = [
    "Telemetry",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "Tracer", "Span", "SpanKind",
    "EventLog", "TelemetryRecord",
    "FlightRecorder", "FlightRecord",
    "SLOEngine", "Alert", "default_probes", "fault_coverage",
    "prometheus_text", "jsonl_lines", "write_prometheus", "write_jsonl",
    "histogram_summaries", "merge_jsonl",
    "attach_telemetry", "instrument_scenario",
    "attach_observability", "Observability",
]
