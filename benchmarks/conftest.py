"""Benchmark-suite plumbing.

Each benchmark regenerates one experiment from EXPERIMENTS.md and records
its result rows through the ``experiment`` fixture. The rows are printed
in the terminal summary (so they survive pytest's output capture) and
attached to the pytest-benchmark report via ``extra_info``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

# ``_helpers`` reads the checked-out commit through ``benchmarks.e2e``,
# so the repository root must be importable however pytest was started.
_ROOT = str(Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

_REPORTS: List["ExperimentReport"] = []


@dataclass
class ExperimentReport:
    """Result rows for one experiment."""

    exp_id: str
    title: str
    header: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    expectation: Optional[str] = None
    conclusion: Optional[str] = None

    def row(self, *values) -> None:
        self.rows.append(values)

    def render(self) -> List[str]:
        lines = [f"[{self.exp_id}] {self.title}"]
        if self.expectation:
            lines.append(f"  expectation: {self.expectation}")
        widths = [max(len(str(header_cell)),
                      *(len(_fmt(row[i])) for row in self.rows))
                  if self.rows else len(str(header_cell))
                  for i, header_cell in enumerate(self.header)]
        lines.append("  " + "  ".join(
            str(h).ljust(w) for h, w in zip(self.header, widths)))
        for row in self.rows:
            lines.append("  " + "  ".join(
                _fmt(cell).ljust(w) for cell, w in zip(row, widths)))
        if self.conclusion:
            lines.append(f"  => {self.conclusion}")
        return lines


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


@pytest.fixture
def experiment():
    """Create (and auto-register) an :class:`ExperimentReport`."""

    def _make(exp_id: str, title: str, header: Sequence[str],
              expectation: Optional[str] = None) -> ExperimentReport:
        report = ExperimentReport(exp_id=exp_id, title=title, header=header,
                                  expectation=expectation)
        _REPORTS.append(report)
        return report

    return _make


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "experiment results (paper-shape checks)")
    for report in _REPORTS:
        for line in report.render():
            terminalreporter.write_line(line)
        terminalreporter.write_line("")
