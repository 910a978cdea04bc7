"""Fixture-driven rule tests: every rule flags its bad file and passes
its good file.

Each ``bad_*.py`` fixture is a distilled violation of exactly one rule;
each ``good_*.py`` is the deterministic idiom the rule steers toward.
The pairing is the rule's executable specification — a new rule lands
with both halves or it does not land.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.config import LintConfig
from repro.analysis.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: rule code -> fixture stem. DGF005 lints its fixtures as if they were
#: recovery-dispatch modules so the broad-except checks apply.
CASES = {
    "DGF001": "dgf001_wall_clock",
    "DGF002": "dgf002_randomness",
    "DGF003": "dgf003_set_iteration",
    "DGF004": "dgf004_float_eq",
    "DGF005": "dgf005_retry_contract",
    "DGF006": "dgf006_labels",
    "DGF007": "dgf007_substreams",
    "DGF008": "dgf008_module_state",
}

CONFIG = LintConfig(dispatch_paths=("*dgf005*",))


def _lint(path: Path):
    findings, suppressions = lint_source(
        path.read_text(encoding="utf-8"), path.as_posix(), CONFIG)
    return findings


def test_every_shipped_rule_has_a_fixture_pair():
    assert set(CASES) == {rule.code for rule in RULES}
    for stem in CASES.values():
        assert (FIXTURES / f"bad_{stem}.py").is_file()
        assert (FIXTURES / f"good_{stem}.py").is_file()


@pytest.mark.parametrize("code,stem", sorted(CASES.items()))
def test_bad_fixture_is_flagged(code, stem):
    findings = _lint(FIXTURES / f"bad_{stem}.py")
    hits = [finding for finding in findings if finding.code == code]
    assert hits, f"{code} missed every violation in bad_{stem}.py"
    # No *other* rule should trip on a distilled single-rule fixture —
    # cross-fire means a rule is over-broad.
    strays = [finding for finding in findings if finding.code != code]
    assert not strays, f"unexpected findings in bad_{stem}.py: {strays}"


@pytest.mark.parametrize("code,stem", sorted(CASES.items()))
def test_good_fixture_is_clean(code, stem):
    findings = _lint(FIXTURES / f"good_{stem}.py")
    assert not findings, (
        f"good_{stem}.py should be clean, got: "
        + "; ".join(f"{f.code}@{f.line} {f.message}" for f in findings))


def test_bad_dgf001_flags_every_wall_clock_site():
    findings = _lint(FIXTURES / "bad_dgf001_wall_clock.py")
    assert [f.line for f in findings] == [9, 10, 11, 16]


def test_bad_dgf003_flags_each_loop_once():
    findings = _lint(FIXTURES / "bad_dgf003_set_iteration.py")
    assert [f.line for f in findings] == [12, 21, 27]


def test_bad_dgf006_flags_every_unbounded_label_site():
    # .labels() by name and by value, .bound[...] by value, and a
    # registration by name (its bound[p] read carries no name).
    findings = _lint(FIXTURES / "bad_dgf006_labels.py")
    assert [f.line for f in findings] == [5, 9, 14, 18, 23]


def test_dgf005_except_checks_only_apply_in_dispatch_paths():
    path = FIXTURES / "bad_dgf005_retry_contract.py"
    outside = LintConfig(dispatch_paths=("*/faults/recovery.py",))
    findings, _ = lint_source(path.read_text(encoding="utf-8"),
                              path.as_posix(), outside)
    broad = [f for f in findings if "catching" in f.message]
    assert not broad, "except-checks leaked outside dispatch paths"
    # ... while the class/raise hygiene still applies everywhere.
    assert any("sounds transient" in f.message for f in findings)


def test_rule_metadata_is_complete():
    codes = set()
    for rule in RULES:
        assert rule.code.startswith("DGF") and len(rule.code) == 6
        assert rule.code not in codes, f"duplicate code {rule.code}"
        codes.add(rule.code)
        assert rule.name, f"{rule.code} has no name"
        assert len(rule.rationale) > 80, (
            f"{rule.code} rationale too thin to teach the contract")
