"""The flight recorder: a bounded ring buffer of causally-linked records.

A long-run datagrid process that dies months in leaves the operator one
question — *what happened right before?* — and an unbounded event log is
the wrong tool: it grows with the run, and most of it is irrelevant to
the crash. The flight recorder is the black box instead: a fixed-size
ring of the most recent :class:`FlightRecord` entries, each stamped with
a monotonic sequence number, the sim time, the span context of the
process that produced it (so records link back into the trace tree), and
the producing process's name. Its one feed is the telemetry session:
every :class:`~repro.telemetry.events.EventLog` ``emit`` tees one
record, and the session's journal tap passes each engine event and
finished transfer on as its row arrives (the session folds its own
records at export time; a crash dump cannot wait), with the very fields
dict the fold later logs.

Recording is append-to-a-``deque(maxlen=N)`` plus one span-context read:
near-zero overhead, no allocation beyond the record tuple, no kernel
events, no RNG — attaching a recorder cannot move a single float of the
simulation (``benchmarks/test_e23_observability.py`` holds the 20-seed
chaos fingerprint bit-identical with it attached).

Dumps happen on demand (:meth:`FlightRecorder.dump`), on a chaos
invariant violation (the chaos harness calls :meth:`dump`), or on a
kernel deadlock (:meth:`on_deadlock`, invoked duck-typed from
``Environment.run_process`` so the kernel imports nothing from here).
The dump is deterministic JSONL: a header line naming the reason, then
one line per surviving record in sequence order.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, NamedTuple, Optional

__all__ = ["FlightRecord", "FlightRecorder"]

#: Default ring capacity: enough to hold the full causal tail of a chaos
#: run (faults, retries, restarts) while staying a few hundred KB.
DEFAULT_CAPACITY = 4096


class FlightRecord(NamedTuple):
    """One ring entry: who did what, when, under which span."""

    seq: int
    time: float
    kind: str
    #: Span id of the producing process's current span (None outside any).
    span_id: Optional[int]
    #: ``__name__`` of the producing process's generator ('' if none).
    process: str
    fields: Dict[str, object]


class FlightRecorder:
    """Bounded, causally-annotated recent-history buffer for one session.

    Construct via
    :func:`~repro.telemetry.instrument.attach_observability`, which hangs
    it off the :class:`~repro.telemetry.core.Telemetry` session.
    """

    def __init__(self, telemetry, capacity: int = DEFAULT_CAPACITY,
                 dump_path: Optional[str] = None) -> None:
        self.telemetry = telemetry
        self.env = telemetry.env
        self.capacity = capacity
        self.dump_path = dump_path
        self.ring: deque = deque(maxlen=capacity)
        self._seq = 0
        #: Set by the last :meth:`dump`; tests and the chaos harness read
        #: these instead of re-parsing the written file.
        self.last_dump: List[str] = []
        self.last_dump_reason: Optional[str] = None
        self.dump_count = 0

    def record(self, kind: str, fields: Dict[str, object]) -> None:
        """Append one record at the current sim time.

        The span context is the active process's engine-pinned
        ``Process._tspan``, so records produced inside an operation
        handler link to the step span that spawned it.
        """
        active = self.env._active_process
        if active is None:
            span_id, process = None, ""
        else:
            span_id = active._tspan
            process = getattr(active._generator, "__name__", "") or ""
        seq = self._seq
        self._seq = seq + 1
        self.ring.append(tuple.__new__(FlightRecord, (
            seq, self.env._now, kind, span_id, process, fields)))

    # -- dumping -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records evicted from the ring since attach."""
        return self._seq - len(self.ring)

    def dump(self, reason: str, path: Optional[str] = None) -> List[str]:
        """Serialize the ring as JSONL (header line + one per record).

        Writes to ``path`` (or the recorder's ``dump_path``) when one is
        set; always returns the lines and remembers them on
        :attr:`last_dump` / :attr:`last_dump_reason`.
        """
        lines = [json.dumps({
            "type": "recorder", "reason": reason, "time": self.env.now,
            "records": len(self.ring), "dropped": self.dropped,
            "capacity": self.capacity}, sort_keys=True)]
        for seq, time, kind, span_id, process, fields in self.ring:
            lines.append(json.dumps({
                "type": "record", "seq": seq, "time": time, "kind": kind,
                "span_id": None if span_id is None else f"s{span_id:06d}",
                "process": process, **fields},
                sort_keys=True, default=str))
        target = path if path is not None else self.dump_path
        if target is not None:
            with open(target, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
        self.last_dump = lines
        self.last_dump_reason = reason
        self.dump_count += 1
        return lines

    def on_deadlock(self, process_name: str, target: str) -> None:
        """Kernel hook: a ``run_process`` deadlock is about to raise.

        Called duck-typed from the kernel (which imports no telemetry),
        records the stuck process, and auto-dumps the ring so the causal
        tail of the hang survives the exception.
        """
        self.record("sim.deadlock",
                    {"process": process_name, "waiting_on": target})
        self.dump("deadlock")
