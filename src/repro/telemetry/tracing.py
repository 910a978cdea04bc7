"""Hierarchical tracing spans over simulation processes.

A span is one timed piece of work — a flow, a step, a transfer — with a
parent, so a whole execution reconstructs as a tree: the *flow → step →
transfer* chain §2.1's monitoring requirement implies. Start/end stamps
are **simulation time**, and span ids are minted from a deterministic
counter, so traces are reproducible run to run.

The subtlety is context: the sim kernel interleaves many generator-based
processes, so a single global "current span" stack would attribute a
transfer started by process B to whatever span process A happened to have
open. Parents are therefore always explicit: the caller of
:meth:`Tracer.begin` passes the parent span, and the tracer does no
context bookkeeping at all. The engine threads its span down the
``_run_*`` call chain this way, and pins it on each
:class:`~repro.sim.kernel.Process` it spawns (``Process._tspan``) so
cross-process work — a transfer inside an operation handler — finds its
parent on the *active process*.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, attributed piece of work in the span tree.

    A hand-written ``__slots__`` class, not a dataclass: one is created
    per flow, step, and transfer, so construction cost and per-instance
    footprint both matter. Ids are small ints minted from a deterministic
    counter; exporters format them for display.
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "status",
                 "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float, attrs: Dict[str, object]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs = attrs

    def __repr__(self) -> str:
        return (f"Span(id={self.span_id}, parent={self.parent_id}, "
                f"name={self.name!r}, status={self.status!r})")

    @property
    def duration(self) -> float:
        """Span length in virtual seconds (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


class Tracer:
    """Creates and collects spans for one telemetry session."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._next_id = 1
        #: Every ended span, in end order (the export surface).
        self.finished: List[Span] = []

    def begin(self, name: str, parent: Optional[Span],
              attrs: Dict[str, object]) -> Span:
        """Open a span under an explicit ``parent`` (may be None).

        Callers hold their parent span in hand (the engine's ``_run_*``
        chain, the transfer service reading ``Process._tspan``); the
        positional-dict signature keeps call overhead minimal.
        """
        span_id = self._next_id
        self._next_id = span_id + 1
        return Span(span_id, None if parent is None else parent.span_id,
                    name, self._clock(), attrs)

    def finish(self, span: Span, status: str = "ok") -> None:
        """Close a :meth:`begin` span and collect it. Twice is a no-op."""
        if span.end is None:
            span.end = self._clock()
            span.status = status
            self.finished.append(span)
