"""The benchmark harness in ``benchmarks/_helpers.py``: one writer, one
timer, and one environment switch for every benchmark."""

import ast
import gc
import json
from pathlib import Path

from benchmarks import _helpers

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_merge_results_keeps_earlier_sections_and_adds_the_envelope(
        tmp_path):
    path = tmp_path / "BENCH_demo.json"
    _helpers.merge_results(path, first={"rows": [1, 2]}, flag=True)
    _helpers.merge_results(path, second={"rows": [3]})
    payload = json.loads(path.read_text())
    assert payload["first"] == {"rows": [1, 2]}
    assert payload["flag"] is True
    assert payload["second"] == {"rows": [3]}
    envelope = payload["envelope"]
    assert set(envelope) == {"schema", "python", "cores", "git_sha", "smoke"}
    assert envelope["schema"] == _helpers.SCHEMA
    assert envelope["smoke"] is _helpers.SMOKE
    assert envelope["cores"] >= 1


def _timed_under(collector_on: bool):
    """Run :func:`timed` with the collector on or off beforehand; returns
    (collector state inside the run, collector state afterwards)."""
    was_enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    inside = []
    try:
        seconds = _helpers.timed(lambda: inside.append(gc.isenabled()))
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seconds >= 0.0
    return inside, after


def test_timed_leaves_a_disabled_collector_disabled():
    assert _timed_under(collector_on=False) == ([False], False)


def test_timed_parks_an_enabled_collector_and_turns_it_back_on():
    assert _timed_under(collector_on=True) == ([False], True)


def _environment_reads(source: str):
    """Each ``os.environ`` / ``os.getenv`` use (or import) in ``source``."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ",
                                                            "getenv"):
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in ("environ", "getenv"))
    return reads


def test_only_the_helpers_read_the_environment():
    offenders = {}
    for path in sorted(BENCHMARKS.rglob("*.py")):
        relative = path.relative_to(BENCHMARKS)
        if relative.parts[0] == "e2e" or relative.name == "_helpers.py":
            continue
        reads = _environment_reads(path.read_text(encoding="utf-8"))
        if reads:
            offenders[str(relative)] = reads
    assert offenders == {}
    assert _environment_reads(
        (BENCHMARKS / "_helpers.py").read_text(encoding="utf-8"))
