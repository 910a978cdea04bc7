"""A fixed unit of host work, to express host time at a reference speed.

The benchmark runs on shared hosts whose speed drifts by up to a factor
of two over minutes, with every piece of code slowing alike: set-up, the
timed phase and any other Python loop. A run therefore times this fixed
pure-Python event loop beside its batches. Its median CPU time, against
:data:`REFERENCE_S`, says how fast the host ran during the run, and the
end-to-end times are scaled to the reference speed.

The loop imports nothing from the program, so no change to the program
can move it; it has the shape of the simulator's own hot path (a heap of
timestamped events, small objects, dict and string work).
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "reference_seconds"]

#: CPU seconds :func:`reference_seconds` takes on the host the baselines
#: in README.md were measured on (2 vCPUs, Python 3.11), in a quiet spell.
REFERENCE_S = 0.11


class _Event:
    __slots__ = ("kind", "data")

    def __init__(self, kind: int, data: list) -> None:
        self.kind = kind
        self.data = data


def _event_loop(steps: int) -> int:
    heap = []
    state = {}
    seq = 0
    draw = 12345
    for index in range(200):
        heapq.heappush(heap, (float(index), seq, _Event(index % 5, [index])))
        seq += 1
    for _ in range(steps):
        now, _, event = heapq.heappop(heap)
        key = (event.kind, len(event.data) % 7)
        state[key] = state.get(key, 0) + 1
        draw = (draw * 1103515245 + 12345) & 0x7FFFFFFF
        event.data.append(draw & 0xFF)
        if len(event.data) > 8:
            event.data = event.data[-4:]
        label = f"{event.kind}:{now:.3f}"
        if label[-1] == "7":
            state[label] = now
            if len(state) > 5000:
                state.clear()
        heapq.heappush(heap, (now + (draw % 100) / 10.0, seq,
                              _Event(event.kind, event.data)))
        seq += 1
    return len(state)


def reference_seconds() -> float:
    """CPU seconds this host takes for the fixed event loop right now."""
    started = time.process_time()
    _event_loop(60000)
    return time.process_time() - started
