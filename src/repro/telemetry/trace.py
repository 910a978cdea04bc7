"""Causal trace reconstruction from JSONL telemetry exports.

The JSONL exporter writes a run's full narrative — events, spans,
samples, final metric values — one object per line. This module is the
read side: parse a dump (tolerating truncation — a crashed writer's
half-line is counted, not fatal), rebuild the span forest from
``span_id`` / ``parent_id`` references (orphaned spans, whose parent
never made it into the file, are promoted to marked roots rather than
dropped), and reconstruct the *causal story* of a single execution: the
faults that opened around it, the transfers that were interrupted, the
retries/backoffs/failovers/resumes the recovery layer took, checkpoint
restarts, monitor-visible transitions, SLO alerts, and the terminal
state — ordered on sim time. ``repro trace <execution-id>`` renders it
for operators.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["ParsedDump", "SpanNode", "TraceMoment", "parse_jsonl",
           "build_span_forest", "reexport", "causal_trace", "render_trace"]


class ParsedDump(NamedTuple):
    """One parsed JSONL export, split by entry type."""

    entries: List[dict]            # every valid entry, file order
    spans: Dict[str, dict]         # span_id -> span entry
    events: List[dict]             # event entries, file order
    skipped: List[Tuple[int, str]]  # (1-based line number, why)


class SpanNode(NamedTuple):
    """One node of the reconstructed span forest."""

    span: dict
    children: List["SpanNode"]
    #: True when the span's parent_id resolves to no span in the dump
    #: (export truncated mid-run, or the parent never finished).
    orphaned: bool


class TraceMoment(NamedTuple):
    """One line of a causal story: when, which subsystem, what."""

    time: float
    source: str      # engine / fault / network / recovery / monitor / slo
    summary: str
    fields: dict


def parse_jsonl(lines) -> ParsedDump:
    """Parse exported JSONL lines, skipping (and counting) broken ones.

    A dump written by a dying process may end mid-line; anything that is
    not valid JSON or not a dict is recorded in ``skipped`` with its line
    number instead of raising, so a partial dump still reconstructs.
    """
    entries: List[dict] = []
    spans: Dict[str, dict] = {}
    events: List[dict] = []
    skipped: List[Tuple[int, str]] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:
            skipped.append((number, f"invalid JSON: {exc}"))
            continue
        if not isinstance(entry, dict) or "type" not in entry:
            skipped.append((number, "not a telemetry entry"))
            continue
        entries.append(entry)
        kind = entry["type"]
        if kind == "span":
            spans[entry["span_id"]] = entry
        elif kind in ("event", "record"):
            events.append(entry)
    return ParsedDump(entries, spans, events, skipped)


def build_span_forest(spans: Dict[str, dict]) -> List[SpanNode]:
    """Rebuild the span tree(s) from parent references.

    Roots are spans with no parent; spans whose parent is missing from
    the dump become roots too, flagged ``orphaned`` — a truncated export
    loses ancestors first (they finish last), so orphan promotion keeps
    the surviving subtrees intact. Siblings sort on start, then on the
    numeric span id (``s1000000`` after ``s999999``).
    """
    nodes = {span_id: SpanNode(span, [], False)
             for span_id, span in spans.items()}
    roots: List[SpanNode] = []
    for span_id in spans:
        node = nodes[span_id]
        parent_id = node.span.get("parent_id")
        if parent_id is None:
            roots.append(node)
        elif parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            roots.append(SpanNode(node.span, node.children, True))
            nodes[span_id] = roots[-1]

    def order(node):
        # Exported ids are "s" + the zero-padded int id.
        return node.span.get("start", 0.0), int(node.span["span_id"][1:])

    for node in nodes.values():
        node.children.sort(key=order)
    roots.sort(key=order)
    return roots


def reexport(dump: ParsedDump) -> List[str]:
    """Re-serialize a parsed dump, byte-identical to its valid input.

    The exporter writes ``json.dumps(entry, sort_keys=True)``; floats
    round-trip exactly through ``json.loads``, so export → parse →
    reexport is the identity on every line that parsed.
    """
    return [json.dumps(entry, sort_keys=True, default=str)
            for entry in dump.entries]


# --------------------------------------------------------------------------
# Causal reconstruction
# --------------------------------------------------------------------------


def _execution_span(dump: ParsedDump, request_id: str) -> Optional[dict]:
    for span in dump.spans.values():
        if (span.get("name") == "execution"
                and span.get("attrs", {}).get("request_id") == request_id):
            return span
    return None


def execution_ids(dump: ParsedDump) -> List[str]:
    """Every execution request id the dump mentions, first-seen order."""
    seen: Dict[str, None] = {}
    for event in dump.events:
        if event.get("kind", "").startswith("engine."):
            rid = event.get("request_id")
            if rid is not None:
                seen[rid] = None
    for span in dump.spans.values():
        if span.get("name") == "execution":
            rid = span.get("attrs", {}).get("request_id")
            if rid is not None:
                seen[rid] = None
    return list(seen)


def _summarize(event: dict) -> Tuple[str, str]:
    """(source, one-line summary) for one event entry."""
    kind = event.get("kind", "?")
    if kind.startswith("engine."):
        what = kind[len("engine."):]
        key = event.get("key") or ""
        extra = ""
        if event.get("error"):
            error_type = event.get("error_type")
            prefix = f"{error_type}: " if error_type else ""
            extra = f" — {prefix}{event['error']}"
        return "engine", (f"{what} {key}".rstrip() + extra)
    if kind.startswith("fault."):
        phase = kind[len("fault."):]
        return "fault", (f"{phase} {event.get('fault', '?')} on "
                         f"{event.get('target', '?')}")
    if kind == "net.interrupted":
        return "network", (
            f"transfer {event.get('src')}->{event.get('dst')} interrupted "
            f"on {event.get('link')} "
            f"({event.get('transferred', 0):.0f}/"
            f"{event.get('nbytes', 0):.0f} B moved)")
    if kind == "net.transfer":
        return "network", (f"transfer {event.get('src')}->"
                           f"{event.get('dst')} completed "
                           f"({event.get('nbytes', 0):.0f} B in "
                           f"{event.get('duration', 0.0):.2f}s)")
    if kind.startswith("recovery."):
        action = kind[len("recovery."):]
        detail = {key: value for key, value in event.items()
                  if key not in ("type", "time", "kind", "seq", "span_id",
                                 "process")}
        parts = " ".join(f"{key}={value}"
                         for key, value in sorted(detail.items()))
        return "recovery", f"{action} {parts}".rstrip()
    if kind.startswith("monitor."):
        return "monitor", (f"{kind[len('monitor.'):]} "
                           f"{event.get('state', '')}".rstrip())
    if kind == "slo.alert":
        return "slo", (f"[{event.get('severity')}] "
                       f"{event.get('message', event.get('probe'))}")
    if kind == "sim.deadlock":
        return "kernel", (f"deadlock: {event.get('process')} waiting on "
                          f"{event.get('waiting_on')}")
    return "event", kind


#: Ambient kinds: not tagged with a request id, but part of any
#: overlapping execution's causal story.
_AMBIENT_PREFIXES = ("fault.", "recovery.", "slo.")
_AMBIENT_KINDS = ("net.interrupted", "sim.deadlock")


def causal_trace(dump: ParsedDump, request_id: str) -> List[TraceMoment]:
    """The ordered causal story of one execution's terminal state.

    Combines the execution's own engine/monitor events with the ambient
    fault, recovery, network-interruption, and SLO context that overlaps
    its active window — concurrent executions share that context, which
    is the truth of a shared grid, not an attribution error.
    """
    span = _execution_span(dump, request_id)
    own: List[Tuple[float, int, dict]] = []
    times: List[float] = []
    for index, event in enumerate(dump.events):
        if event.get("request_id") == request_id:
            own.append((event.get("time", 0.0), index, event))
            times.append(event.get("time", 0.0))
    if span is not None:
        start, end = span.get("start", 0.0), span.get("end", 0.0)
    elif times:
        start, end = min(times), max(times)
    else:
        return []
    moments = list(own)
    for index, event in enumerate(dump.events):
        if event.get("request_id") == request_id:
            continue
        kind = event.get("kind", "")
        if not (kind.startswith(_AMBIENT_PREFIXES)
                or kind in _AMBIENT_KINDS):
            continue
        when = event.get("time", 0.0)
        if start <= when <= end:
            moments.append((when, index, event))
    moments.sort(key=lambda moment: (moment[0], moment[1]))
    return [TraceMoment(when, *_summarize(event), event)
            for when, _, event in moments]


def render_trace(dump: ParsedDump, request_id: str) -> str:
    """Text rendering of :func:`causal_trace` for the CLI."""
    moments = causal_trace(dump, request_id)
    if not moments:
        known = execution_ids(dump)
        listing = ", ".join(known) if known else "none found"
        return (f"no trace for execution {request_id!r} "
                f"(executions in this dump: {listing})")
    terminal = "unknown"
    for moment in reversed(moments):
        kind = moment.fields.get("kind", "")
        if (kind.startswith("engine.execution_")
                and moment.fields.get("request_id") == request_id):
            terminal = kind[len("engine.execution_"):]
            break
    lines = [f"execution {request_id}: {terminal} "
             f"({len(moments)} causal moments)"]
    if dump.skipped:
        lines.append(f"  [dump truncated: {len(dump.skipped)} "
                     f"unparseable line(s) skipped]")
    width = max(len(moment.source) for moment in moments)
    for moment in moments:
        lines.append(f"  t={moment.time:8.2f}  "
                     f"{moment.source.ljust(width)}  {moment.summary}")
    return "\n".join(lines)
