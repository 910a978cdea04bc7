"""Telemetry exporters: Prometheus text format and JSONL.

Two renderings of one :class:`~repro.telemetry.core.Telemetry` session:

* :func:`prometheus_text` — the Prometheus exposition format (text
  version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one line per series,
  histograms as cumulative ``_bucket`` / ``_sum`` / ``_count`` series.
  Scrape-ready if a run is served over HTTP, diff-able on disk.
* :func:`jsonl_lines` — one JSON object per line covering all three
  surfaces: every event-log record, every finished span (``span_id`` /
  ``parent_id`` allow full tree reconstruction), every histogram sample,
  and the final value of every series. Sorted by sim timestamp so the
  file reads as the run's narrative.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Tuple

from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.slo import quantile

__all__ = ["prometheus_text", "jsonl_lines", "write_prometheus",
           "write_jsonl", "histogram_summaries", "merge_jsonl"]


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace(
        "\n", r"\n")


def _labels_text(names, values) -> str:
    if not names:
        return ""
    inner = ",".join(f'{name}="{_escape_label(str(value))}"'
                     for name, value in zip(names, values))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(telemetry: Telemetry) -> str:
    """Render the session's metrics in Prometheus exposition format."""
    registry: MetricsRegistry = telemetry.collect()
    lines: List[str] = []
    for metric in registry.metrics():
        lines.append(f"# HELP {metric.name} {metric.help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for label_values, series in metric.series():
            labels = _labels_text(metric.labelnames, label_values)
            if isinstance(series, Histogram):
                cumulative = 0
                for bound, count in zip(series.buckets,
                                        series.bucket_counts):
                    cumulative += count
                    bucket_labels = _labels_text(
                        metric.labelnames + ("le",),
                        label_values + (_format_value(bound),))
                    lines.append(f"{metric.name}_bucket{bucket_labels} "
                                 f"{cumulative}")
                total = cumulative + series.bucket_counts[-1]
                inf_labels = _labels_text(metric.labelnames + ("le",),
                                          label_values + ("+Inf",))
                lines.append(f"{metric.name}_bucket{inf_labels} {total}")
                lines.append(f"{metric.name}_sum{labels} "
                             f"{_format_value(series.sum)}")
                lines.append(f"{metric.name}_count{labels} {series.count}")
            else:
                lines.append(f"{metric.name}{labels} "
                             f"{_format_value(series.value)}")
    return "\n".join(lines) + "\n"


def jsonl_lines(telemetry: Telemetry,
                window: Optional[Tuple[float, float]] = None) -> List[str]:
    """The session as JSONL: events, spans, samples, final metric values.

    ``window=(start, end)`` keeps only timed entries whose sim timestamp
    (a span's *end*) lies in the closed interval — the CLI's
    ``--window`` filter. Final metric values are cumulative over the
    whole run, so a windowed export omits them rather than mislabel
    run-total numbers as window-local ones.
    """
    registry = telemetry.collect()
    entries: List[tuple] = []
    for record in telemetry.log.records:
        entries.append((record.time, 0, {
            "type": "event", "time": record.time, "kind": record.kind,
            **record.fields}))
    for span in telemetry.tracer.finished:
        # Ids are minted as ints on the hot path; format them here.
        parent = span.parent_id
        entries.append((span.end, 1, {
            "type": "span", "span_id": f"s{span.span_id:06d}",
            "parent_id": None if parent is None else f"s{parent:06d}",
            "name": span.name,
            "start": span.start, "end": span.end, "status": span.status,
            "attrs": span.attrs}))
    for metric in registry.metrics():
        for label_values, series in metric.series():
            labels = dict(zip(metric.labelnames,
                              label_values)) if metric.labelnames else {}
            if isinstance(series, Histogram):
                for when, value in zip(series.sample_times,
                                       series.sample_values):
                    entries.append((when, 2, {
                        "type": "sample", "metric": metric.name,
                        "time": when, "value": value, "labels": labels}))
                final = {"sum": series.sum, "count": series.count}
            else:
                final = {"value": series.value}
            if window is None:
                entries.append((float("inf"), 3, {
                    "type": "metric", "metric": metric.name,
                    "metric_kind": metric.kind, "labels": labels, **final}))
    if window is not None:
        start, end = window
        entries = [entry for entry in entries if start <= entry[0] <= end]
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return [json.dumps(entry[2], sort_keys=True, default=str)
            for entry in entries]


def histogram_summaries(telemetry: Telemetry,
                        window: Optional[Tuple[float, float]] = None
                        ) -> List[dict]:
    """p50/p95/p99 summaries of every histogram series, from raw samples.

    Quantiles are nearest-rank over the exact sample list (optionally
    restricted to a sim-time ``window``) — real observed values, not
    bucket-boundary interpolations. Series with no samples in range are
    omitted.
    """
    telemetry.collect()
    summaries: List[dict] = []
    for metric in telemetry.metrics.metrics():
        if metric.kind != "histogram":
            continue
        for label_values, series in metric.series():
            values = [value for when, value in zip(series.sample_times,
                                                   series.sample_values)
                      if window is None or window[0] <= when <= window[1]]
            if not values:
                continue
            summaries.append({
                "metric": metric.name,
                "labels": dict(zip(metric.labelnames, label_values)),
                "count": len(values),
                "p50": quantile(values, 0.50),
                "p95": quantile(values, 0.95),
                "p99": quantile(values, 0.99),
                "max": max(values),
            })
    return summaries


def merge_jsonl(parts: Iterable[Tuple[str, Iterable[str]]]) -> List[str]:
    """Deterministically merge per-worker JSONL exports into one stream.

    ``parts`` is an ordered iterable of ``(run_tag, lines)`` — e.g. one
    entry per seed of a :func:`repro.farm.run_farm` sweep. Each line
    gains a ``"run"`` field naming its origin; part order and line order
    are preserved, and re-dumping with sorted keys makes the output a
    pure function of the inputs — merging the same parts in the same
    order is byte-identical wherever it runs, so a farmed sweep's merged
    telemetry equals the serial run's.
    """
    merged: List[str] = []
    for tag, lines in parts:
        for line in lines:
            entry = json.loads(line)
            entry["run"] = tag
            merged.append(json.dumps(entry, sort_keys=True, default=str))
    return merged


def write_prometheus(telemetry: Telemetry, path: str) -> None:
    """Write :func:`prometheus_text` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(telemetry))


def write_jsonl(telemetry: Telemetry, path: str,
                window: Optional[Tuple[float, float]] = None) -> None:
    """Write :func:`jsonl_lines` to ``path``, one object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in jsonl_lines(telemetry, window=window):
            handle.write(line + "\n")
