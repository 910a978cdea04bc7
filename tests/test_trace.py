"""Tests for causal trace reconstruction and telemetry-export merging.

The JSONL export is the contract: this suite holds the read side
(:mod:`repro.telemetry.trace`) to a byte-identical round trip, proves the
span forest survives truncated and orphaned dumps, pins the farmed
telemetry merge to the serial merge byte for byte, and walks the full
fault → recovery → terminal causal chain out of a real chaos run.
"""

import json

from repro.farm import run_farm
from repro.telemetry import instrument_scenario, jsonl_lines, merge_jsonl
from repro.telemetry.trace import (
    build_span_forest,
    causal_trace,
    execution_ids,
    parse_jsonl,
    reexport,
    render_trace,
)
from repro.workloads import run_chaos

#: Shrunk chaos shape shared by the tests below: same machinery, a
#: fraction of the wall time.
SMALL = dict(n_fault_events=2, horizon=20.0, n_events=2)


def small_observed(seed):
    return run_chaos(seed, observe=True, observe_export=True, **SMALL)


# -- parsing & round trip --------------------------------------------------


def test_export_parse_reexport_is_byte_identity():
    lines = small_observed(3).observe.jsonl
    dump = parse_jsonl(lines)
    assert dump.skipped == []
    assert reexport(dump) == lines


def test_truncated_dump_parses_with_skips():
    lines = small_observed(3).observe.jsonl
    # A writer dying mid-line leaves the last line half-written.
    truncated = lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]
    dump = parse_jsonl(truncated)
    assert len(dump.skipped) == 1
    assert dump.skipped[0][0] == len(lines)
    assert "invalid JSON" in dump.skipped[0][1]
    assert reexport(dump) == lines[:-1]


def test_non_entry_lines_are_counted_not_fatal():
    dump = parse_jsonl(["", "not json at all", '["a", "list"]',
                        '{"no": "type field"}',
                        '{"type": "event", "time": 1.0, "kind": "x"}'])
    assert len(dump.entries) == 1
    assert [number for number, _ in dump.skipped] == [2, 3, 4]


# -- span forest -----------------------------------------------------------


def _span(span_id, parent_id, name="s", start=0.0, end=1.0):
    return {"type": "span", "span_id": span_id, "parent_id": parent_id,
            "name": name, "start": start, "end": end, "status": "ok",
            "attrs": {}}


def test_span_forest_nests_and_sorts_siblings():
    spans = {
        "s000001": _span("s000001", None, "root", 0.0, 9.0),
        "s000002": _span("s000002", "s000001", "late", 5.0, 6.0),
        "s000003": _span("s000003", "s000001", "early", 1.0, 2.0),
    }
    roots = build_span_forest(spans)
    assert len(roots) == 1
    assert not roots[0].orphaned
    assert [child.span["name"] for child in roots[0].children] == [
        "early", "late"]


def test_orphaned_spans_are_promoted_to_flagged_roots():
    # s000002's parent never made it into the dump (truncated export);
    # its own subtree must survive, flagged.
    spans = {
        "s000002": _span("s000002", "s000001", "orphan", 1.0, 5.0),
        "s000003": _span("s000003", "s000002", "child", 2.0, 3.0),
    }
    roots = build_span_forest(spans)
    assert len(roots) == 1
    assert roots[0].orphaned
    assert roots[0].span["name"] == "orphan"
    assert [child.span["name"] for child in roots[0].children] == ["child"]


def test_real_export_builds_a_clean_forest():
    dump = parse_jsonl(small_observed(3).observe.jsonl)
    roots = build_span_forest(dump.spans)
    assert roots, "no spans in a chaos export"
    assert not any(root.orphaned for root in roots)
    execution_roots = [root for root in roots
                       if root.span["name"] == "execution"]
    # Every execution span parents a flow span which parents step spans.
    assert execution_roots
    for root in execution_roots:
        assert any(child.span["name"] == "flow"
                   for child in root.children)


# -- farm merge ------------------------------------------------------------


def test_farmed_telemetry_merge_is_byte_identical_to_serial(farm_cores):
    seeds = [0, 1, 2, 3]
    kwargs = dict(observe=True, observe_export=True, **SMALL)
    farm_cores(1)
    serial = run_farm(run_chaos, seeds, kwargs=kwargs)
    farm_cores(2)
    farmed = run_farm(run_chaos, seeds, kwargs=kwargs)
    merged_serial = merge_jsonl(
        (f"seed-{report.seed}", report.observe.jsonl) for report in serial)
    merged_farmed = merge_jsonl(
        (f"seed-{report.seed}", report.observe.jsonl) for report in farmed)
    assert merged_serial == merged_farmed
    assert all("\n" not in line for line in merged_farmed)


def test_merge_tags_lines_with_their_run():
    merged = merge_jsonl([
        ("seed-0", ['{"type": "event", "time": 1.0, "kind": "x"}']),
        ("seed-1", ['{"type": "event", "time": 0.5, "kind": "y"}']),
    ])
    entries = [json.loads(line) for line in merged]
    assert [entry["run"] for entry in entries] == ["seed-0", "seed-1"]
    # Part order is preserved — merging is concatenation plus tagging,
    # so the result is a pure function of the inputs.
    assert [entry["kind"] for entry in entries] == ["x", "y"]


# -- causal reconstruction -------------------------------------------------


def test_execution_ids_lists_first_seen_order():
    dump = parse_jsonl(small_observed(3).observe.jsonl)
    ids = execution_ids(dump)
    assert ids == sorted(ids)
    assert all(rid.startswith("cms-matrix") for rid in ids)


def test_causal_chain_fault_recovery_terminal():
    """The headline e2e: a trace shows fault → recovery → terminal."""
    report = small_observed(1)
    dump = parse_jsonl(report.observe.jsonl)
    # Find an execution the recovery layer actually touched.
    restarts = [event for event in dump.events
                if event.get("kind") == "recovery.restart"]
    assert restarts, "seed 1 no longer exercises restart recovery"
    rid = restarts[0]["request_id"]
    moments = causal_trace(dump, rid)
    kinds = [moment.fields.get("kind", "") for moment in moments]

    def first(prefix):
        return next(index for index, kind in enumerate(kinds)
                    if kind.startswith(prefix))

    fault_at = first("fault.begin")
    recovery_at = first("recovery.")
    terminal_at = max(index for index, kind in enumerate(kinds)
                      if kind.startswith("engine.execution_"))
    assert fault_at < recovery_at < terminal_at
    # Times are monotone: the story reads in causal order.
    times = [moment.time for moment in moments]
    assert times == sorted(times)
    text = render_trace(dump, rid)
    assert text.startswith(f"execution {rid}: "
                           f"{report.executions[rid]}")
    assert "fault" in text and "recovery" in text


def test_render_trace_unknown_execution_lists_candidates():
    dump = parse_jsonl(small_observed(3).observe.jsonl)
    text = render_trace(dump, "nope-000001")
    assert text.startswith("no trace for execution 'nope-000001'")
    for rid in execution_ids(dump):
        assert rid in text


def test_windowed_export_is_a_subset_in_order():
    from repro.workloads import cms_scenario

    scenario = cms_scenario(n_events=2)
    telemetry = instrument_scenario(scenario)
    from repro.dgl import DataGridRequest
    from repro.ilm import exploding_star_flow

    user = scenario.users["physicist"]
    flow = exploding_star_flow(
        "stage-out", "/cms/run1",
        tier_resources=[scenario.extras["tier1_resources"],
                        scenario.extras["tier2_resources"]])

    def go():
        response = yield scenario.env.process(scenario.server.submit_sync(
            DataGridRequest(user=user.qualified_name,
                            virtual_organization="demo", body=flow)))
        return response

    scenario.run(go())
    full = jsonl_lines(telemetry)
    windowed = jsonl_lines(telemetry, window=(0.0, 5.0))
    assert windowed
    assert len(windowed) < len(full)
    # Every windowed line appears in the full export, in the same order.
    iterator = iter(full)
    assert all(line in iterator for line in windowed)
    # No run-total metric finals masquerade as window-local values.
    assert not any(json.loads(line)["type"] == "metric"
                   for line in windowed)
