"""The benchmark harness in ``benchmarks/_helpers.py``: one writer, one
timer, and one environment switch for every benchmark."""

import ast
import gc
import json
import subprocess
from pathlib import Path

from benchmarks import _helpers

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_merge_results_keeps_earlier_sections_and_adds_the_envelope(
        tmp_path, monkeypatch):
    monkeypatch.setattr(_helpers, "_dirty", lambda: False)
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


def test_envelope_marks_results_built_from_a_dirty_tree(tmp_path,
                                                        monkeypatch):
    path = tmp_path / "BENCH_demo.json"
    monkeypatch.setattr(_helpers, "_dirty", lambda: True)
    _helpers.merge_results(path, rows=[1])
    assert json.loads(path.read_text())["envelope"]["dirty"] is True
    monkeypatch.setattr(_helpers, "_dirty", lambda: False)
    _helpers.merge_results(path, rows=[1])
    assert "dirty" not in json.loads(path.read_text())["envelope"]


def test_a_tree_is_dirty_when_a_tracked_file_but_a_bench_file_differs(
        tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=bench",
                        "-c", "user.email=bench@example.org",
                        "-c", "commit.gpgsign=false", *args],
                       check=True, capture_output=True)

    code, bench = tmp_path / "code.py", tmp_path / "BENCH_demo.json"
    code.write_text("x = 1\n")
    bench.write_text("{}\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "seed")
    monkeypatch.setattr(_helpers, "REPO_ROOT", tmp_path)
    assert not _helpers._dirty()
    bench.write_text('{"rows": [1]}\n')
    (tmp_path / "untracked.txt").write_text("scratch\n")
    assert not _helpers._dirty()
    code.write_text("x = 2\n")
    assert _helpers._dirty()


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
