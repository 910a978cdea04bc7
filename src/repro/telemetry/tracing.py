"""Hierarchical tracing spans over simulation processes.

A span is one timed piece of work — an execution, a flow, a step, a
transfer — with a parent, so a whole execution reconstructs as a tree:
the *flow → step → transfer* chain §2.1's monitoring requirement
implies. Start/end stamps are **simulation time**, and span ids are
minted from a deterministic counter, so traces are reproducible run to
run.

Spans are kept as **rows**, not objects. A months-long run closes a span
per execution, flow, step and transfer, and a live object with its own
attribute dict cost ~300 B a span. :meth:`Tracer.begin` appends one row
to typed columns instead — parent id, start and end in ``array``
columns, plus references to a shared :class:`SpanKind`, the status
string and a tuple of the attribute values (~120 B in all) — and hands
back the span's int id.
:class:`Span` objects are built only when someone reads
:attr:`Tracer.finished` (the JSONL exporter, tests, ``repro
telemetry``); ``len(tracer)`` counts closed spans without building any.

The subtlety is context: the sim kernel interleaves many generator-based
processes, so a single global "current span" stack would attribute a
transfer started by process B to whatever span process A happened to have
open. Parents are therefore always explicit: the caller of
:meth:`Tracer.begin` passes the parent's id, and the tracer does no
context bookkeeping at all. The engine threads its span id down the
``_run_*`` call chain this way, and pins it on each
:class:`~repro.sim.kernel.Process` it spawns (``Process._tspan``, an int
or None) so cross-process work — a transfer inside an operation handler
— finds its parent on the *active process*. A span id indexes only the
tracer that minted it: whoever opens a span keeps that tracer and closes
the span there, whatever session the environment holds by then.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "SpanKind", "Tracer",
           "EXECUTION", "FLOW", "STEP", "TRANSFER"]


class SpanKind(NamedTuple):
    """What a span is: its name and the names of its attributes.

    Shared by every span of the kind; a row holds only the attribute
    values, in ``keys`` order.
    """

    name: str
    keys: Tuple[str, ...]


#: The span kinds the engine and the transfer service open.
EXECUTION = SpanKind("execution", ("request_id", "flow"))
FLOW = SpanKind("flow", ("key", "request_id"))
STEP = SpanKind("step", ("key", "operation", "request_id"))
TRANSFER = SpanKind("transfer", ("src", "dst", "nbytes", "hops"))

_OPEN = float("nan")


class Span:
    """One finished span, as :attr:`Tracer.finished` reads it back.

    A hand-written ``__slots__`` class, not a dataclass. Ids are small
    ints minted from a deterministic counter; exporters format them for
    display.
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
    """Mints span ids and keeps every span as one row of typed columns.

    Span ``n`` is row ``n - 1``. The parent column holds 0 for a root
    (ids start at 1), the end column NaN and the status column None
    until the span closes, and a separate column lists ids in close
    order, the order :attr:`finished` reads them back in.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._kinds: List[SpanKind] = []
        self._statuses: List[Optional[str]] = []
        self._values: List[tuple] = []
        self._closed = array("q")

    def begin(self, kind: SpanKind, parent_id: Optional[int],
              values: tuple) -> int:
        """Open a span of ``kind`` under ``parent_id`` (None for a root)
        and return its id. ``values`` are the attributes, in
        ``kind.keys`` order."""
        self._parents.append(parent_id or 0)
        self._starts.append(self._clock())
        self._ends.append(_OPEN)
        self._kinds.append(kind)
        self._statuses.append(None)
        self._values.append(values)
        return len(self._kinds)

    def finish(self, span_id: int, status: str = "ok") -> None:
        """Close a :meth:`begin` span. Twice is a no-op."""
        row = span_id - 1
        statuses = self._statuses
        if statuses[row] is None:
            self._ends[row] = self._clock()
            statuses[row] = status
            self._closed.append(span_id)

    def __len__(self) -> int:
        """Closed spans, counted without building any."""
        return len(self._closed)

    @property
    def finished(self) -> List[Span]:
        """Every closed span, in close order: fresh :class:`Span`
        objects (and attribute dicts) built on each read."""
        parents, starts, ends = self._parents, self._starts, self._ends
        kinds, statuses, values = self._kinds, self._statuses, self._values
        spans = []
        for span_id in self._closed:
            row = span_id - 1
            kind = kinds[row]
            span = Span(span_id, parents[row] or None, kind.name,
                        starts[row], dict(zip(kind.keys, values[row])))
            span.end = ends[row]
            span.status = statuses[row]
            spans.append(span)
        return spans
