"""Tests for the datagridflow CLI."""

import json

import pytest

from repro.cli import main
from repro.dgl import (
    DataGridRequest,
    FlowStatusQuery,
    flow_builder,
    flow_to_moml,
    request_to_xml,
)


@pytest.fixture
def document(tmp_path):
    flow = (flow_builder("job")
            .step("a", "dgl.sleep", duration=1)
            .step("b", "srb.replicate", path="/x", resource="tape")
            .build())
    request = DataGridRequest(user="alice@sdsc",
                              virtual_organization="vo", body=flow)
    path = tmp_path / "request.xml"
    path.write_text(request_to_xml(request))
    return str(path)


def test_validate_ok(document, capsys):
    assert main(["validate", document]) == 0
    out = capsys.readouterr().out
    assert "OK: flow 'job' with 2 steps" in out


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    for garbage in [
            "<dataGridRequest><gridUser>u</gridUser></dataGridRequest>",
            "<dataGridRequest><gridUser>u</gridUser><flow name='f'>"
            "<flowLogic><parallel maxConcurrent='many'/></flowLogic>"
            "</flow></dataGridRequest>"]:
        bad.write_text(garbage)
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.xml"]) == 2


def test_render(document, capsys):
    assert main(["render", document]) == 0
    out = capsys.readouterr().out
    assert "[flow] job (sequential)" in out
    assert "[step] b: srb.replicate" in out


def test_render_refuses_status_query(tmp_path, capsys):
    request = DataGridRequest(user="u@d", virtual_organization="",
                              body=FlowStatusQuery(request_id="r-1"))
    path = tmp_path / "query.xml"
    path.write_text(request_to_xml(request))
    assert main(["render", str(path)]) == 1


def test_structure(capsys):
    assert main(["structure", "Flow"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Flow")
    assert "children: Flow | Step*" in out
    assert main(["structure", "Nonsense"]) == 1


def test_moml_round_trip_via_cli(tmp_path, capsys):
    flow = flow_builder("ide-flow").step("s", "dgl.noop").build()
    moml_path = tmp_path / "model.moml"
    moml_path.write_text(flow_to_moml(flow))
    dgl_path = tmp_path / "out.xml"
    assert main(["moml2dgl", str(moml_path), "--user", "alice@sdsc",
                 "-o", str(dgl_path)]) == 0
    assert main(["validate", str(dgl_path)]) == 0
    back_path = tmp_path / "back.moml"
    assert main(["dgl2moml", str(dgl_path), "-o", str(back_path)]) == 0
    assert "datagridflow.Step" in back_path.read_text()


def test_demo_library(capsys):
    assert main(["demo", "library", "--files", "2"]) == 0
    out = capsys.readouterr().out
    assert "scenario 'library': completed" in out
    assert "provenance records" in out


def test_demo_bbsrc(capsys):
    assert main(["demo", "bbsrc", "--files", "2"]) == 0
    assert "completed" in capsys.readouterr().out


def test_demo_cms(capsys):
    assert main(["demo", "cms", "--files", "2"]) == 0
    assert "completed" in capsys.readouterr().out


# -- run-a-scenario subcommands, each at its smallest size -------------------


def test_trace_lists_a_chaos_seeds_executions(capsys):
    assert main(["trace", "--chaos-seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("executions in this telemetry stream")


def test_telemetry_runs_a_demo_with_telemetry_attached(capsys):
    assert main(["telemetry", "library", "--files", "1"]) == 0
    assert "scenario 'library': completed at virtual" in (
        capsys.readouterr().out)


def test_gateway_runs_one_saturation_point_inline(capsys, farm_cores):
    farm_cores(1)
    assert main(["gateway", "--loads", "1", "--horizon", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == [
        "offered/s", "goodput/s", "p50_soj_s", "p99_soj_s", "shed",
        "peak_q", "cache_hit"]


def test_federation_runs_one_seed_inline(capsys, farm_cores):
    farm_cores(1)
    assert main(["federation", "--seeds", "1", "--zones", "2"]) == 0
    assert ("1 seed(s), 2 zones, policy bridge-cost-aware; "
            "0 invariant failure(s)") in capsys.readouterr().out


def test_sanitize_proves_the_same_report_inline_and_pooled(capsys,
                                                           farm_cores):
    reports = []
    for cores in (1, 2):
        farm_cores(cores)
        assert main(["sanitize", "--chaos-seeds", "2",
                     "--federation-seeds", "2", "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    sanitizer = json.loads(reports[0])["sanitizer"]
    assert sanitizer["proved"] is True
    assert [(s["kind"], s["seed"]) for s in sanitizer["scenarios"]] == [
        ("chaos", 0), ("chaos", 1), ("federation", 0), ("federation", 1)]
