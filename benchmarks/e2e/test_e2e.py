"""The benchmark's own checks, at tiny sizes (seconds, not minutes).

* Tracing is read-only: a traced batch has the untraced digest.
* Uninstalling the tracer restores every wrapped callable and every
  from-import alias of one (``repro.dgl.builder.validate_flow``).
* Summed self time never exceeds the traced wall time.
* Every count metric repeats exactly across two runs.
* ``BENCHMARK.json`` names exactly the metrics the benchmark prints.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import sys
import types

import pytest

from .measure import END_TO_END, PER_LAYER, ROOT, run_batch
from .trace import Tracer, _resolve
from .workloads import WORKLOADS

TINY = {
    "exploding_star": {"n_tier1": 2, "n_tier2_per_t1": 2, "n_events": 12,
                       "streams": 4},
    "gateway_traffic": {"collection_objects": 50, "sessions": 60},
    "federation_copy": {"n_zones": 3, "objects_per_zone": 12,
                        "horizon_s": 60.0},
    "archive_ingest": {"preloaded": 60, "ingest_flows": 3,
                       "puts_per_flow": 5},
}


def _repro_globals():
    """Identity snapshot of every global in every loaded repro module."""
    return {(module_name, name): value
            for module_name, module in list(sys.modules.items())
            if module is not None and (module_name == "repro"
                                       or module_name.startswith("repro."))
            for name, value in list(vars(module).items())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_is_read_only_and_counts_repeat(name):
    first, _ = run_batch(name, 0, TINY[name])
    second, _ = run_batch(name, 0, TINY[name])
    tracer = Tracer()
    traced, aggregates = run_batch(name, 0, TINY[name], tracer=tracer)

    assert first.outcome.violations == []
    assert first.outcome.jobs > 0 and first.outcome.failed == 0
    assert traced.outcome.digest == first.outcome.digest
    assert second.outcome.counts == first.outcome.counts
    assert traced.outcome.counts == first.outcome.counts
    assert aggregates["spans"] > 0
    assert 0 < sum(tracer.layer_self_ns()) <= aggregates["wall_s"] * 1e9


def test_uninstall_restores_every_target_and_alias():
    import repro.dgl.builder
    import repro.dgl.schema

    before = _repro_globals()
    originals = {target: _resolve(target)[2] for target in Tracer.targets()}
    validate_flow = repro.dgl.schema.validate_flow
    assert repro.dgl.builder.validate_flow is validate_flow

    late = types.ModuleType("repro._late_import_probe")
    tracer = Tracer().install()
    try:
        assert repro.dgl.builder.validate_flow is not validate_flow
        assert repro.dgl.builder.validate_flow.__wrapped__ is validate_flow
        # A module imported while the tracer is installed binds the
        # wrapper; uninstall must find that alias too.
        sys.modules[late.__name__] = late
        exec("from repro.dgl.schema import validate_flow", vars(late))
        assert late.validate_flow is not validate_flow
    finally:
        tracer.uninstall()
        sys.modules.pop(late.__name__, None)

    assert late.validate_flow is validate_flow
    for target, raw in originals.items():
        assert _resolve(target)[2] is raw, target
    after = _repro_globals()
    assert [key for key, value in before.items()
            if after.get(key) is not value] == []


def test_install_refuses_a_missing_target(monkeypatch):
    from . import trace

    before = _repro_globals()
    monkeypatch.setitem(trace.TARGETS, "dgl",
                        ("repro.dgl.builder:FlowBuilder.no_such_method",))
    with pytest.raises(KeyError):
        Tracer().install()
    after = _repro_globals()
    assert [key for key, value in before.items()
            if after.get(key) is not value] == []


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
