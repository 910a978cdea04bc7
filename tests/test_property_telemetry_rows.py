"""Differential property tests: telemetry rows and columns equal the
object stores they replaced.

A :class:`~repro.telemetry.tracing.Tracer` keeps each span as one row of
typed columns and builds :class:`~repro.telemetry.tracing.Span` objects
only when :attr:`~repro.telemetry.tracing.Tracer.finished` is read. The
reference is the object tracer it replaced, frozen here: one live
``Span`` with an attribute dict per span, collected on finish. Scripts
begin spans of random kinds under random parents (none, open or closed)
and finish them in any order, with any status, some more than once;
both sides read the same clock, which each operation moves to an
arbitrary float. ``finished`` must agree field by field in close order,
with every stamp bit-identical (``-0.0`` included).

A :class:`~repro.telemetry.metrics.Histogram` keeps raw observations in
two ``array('d')`` columns. The reference is the list of ``(time,
value)`` tuples it replaced. Scripts mix ``observe`` calls, hot-path
appends (through the histogram's bound column appends on one side, a
tuple append on the other) and export-time folds; ``samples``, ``sum``,
``count``, ``bucket_counts`` and ``last_updated`` must agree.
"""

import bisect
import struct

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.telemetry.metrics import DEFAULT_BUCKETS, Histogram
from repro.telemetry.tracing import (
    EXECUTION,
    FLOW,
    STEP,
    TRANSFER,
    SpanKind,
    Tracer,
)

KINDS = (EXECUTION, FLOW, STEP, TRANSFER, SpanKind("bare", ()))
STATUSES = ("ok", "error", "cancelled", "interrupted", "failed")

#: Every float but NaN: the clock is simulation time.
stamps = st.floats(allow_nan=False)
attr_values = st.one_of(st.text(max_size=4), st.integers(), stamps)


def bits(value):
    return struct.pack("<d", value)


# -- tracer -------------------------------------------------------------------


class RefSpan:
    """The span object the rows replaced, frozen."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "status",
                 "attrs")

    def __init__(self, span_id, parent_id, name, start, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = None
        self.status = "ok"
        self.attrs = attrs


class RefTracer:
    """The object tracer the rows replaced, frozen."""

    def __init__(self, clock):
        self._clock = clock
        self._next_id = 1
        self.finished = []

    def begin(self, name, parent, attrs):
        span_id = self._next_id
        self._next_id = span_id + 1
        return RefSpan(span_id, None if parent is None else parent.span_id,
                       name, self._clock(), attrs)

    def finish(self, span, status="ok"):
        if span.end is None:
            span.end = self._clock()
            span.status = status
            self.finished.append(span)


@st.composite
def span_ops(draw):
    """One begin or finish; indexes resolve modulo the spans begun."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(KINDS))
        values = tuple(draw(attr_values) for _ in kind.keys)
        parent = draw(st.one_of(st.none(), st.integers(0, 1000)))
        return "begin", draw(stamps), kind, parent, values
    return ("finish", draw(stamps), draw(st.integers(0, 1000)),
            draw(st.sampled_from(STATUSES)))


def assert_same_spans(tracer, ref):
    spans = tracer.finished
    assert len(tracer) == len(spans) == len(ref.finished)
    for span, expected in zip(spans, ref.finished):
        assert (span.span_id, span.parent_id, span.name, span.status) == (
            expected.span_id, expected.parent_id, expected.name,
            expected.status)
        assert list(span.attrs.items()) == list(expected.attrs.items())
        assert bits(span.start) == bits(expected.start)
        assert bits(span.end) == bits(expected.end)
        assert bits(span.duration) == bits(expected.end - expected.start)


@settings(max_examples=200, deadline=None)
@given(st.lists(span_ops(), max_size=40))
def test_row_tracer_matches_object_tracer(script):
    now = [0.0]
    tracer = Tracer(lambda: now[0])
    ref = RefTracer(lambda: now[0])
    ids, ref_spans = [], []
    for op in script:
        now[0] = op[1]
        if op[0] == "begin":
            _, _, kind, parent, values = op
            if parent is None or not ids:
                parent_id = ref_parent = None
            else:
                parent_id = ids[parent % len(ids)]
                ref_parent = ref_spans[parent % len(ids)]
            ids.append(tracer.begin(kind, parent_id, values))
            ref_spans.append(ref.begin(
                kind.name, ref_parent, dict(zip(kind.keys, values))))
            assert ids[-1] == ref_spans[-1].span_id
        elif ids:
            _, _, pick, status = op
            tracer.finish(ids[pick % len(ids)], status)
            ref.finish(ref_spans[pick % len(ids)], status)
    assert_same_spans(tracer, ref)
    # Reading builds fresh objects each time, and never closes anything.
    assert tracer.finished is not tracer.finished
    assert_same_spans(tracer, ref)


# -- histogram ----------------------------------------------------------------


class RefHistogram:
    """The list-of-tuples sample store the columns replaced, frozen."""

    def __init__(self, clock, buckets):
        self._clock = clock
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        #: Raw (sim_time, value) observations, in observation order.
        self.pairs = []
        self._folded = 0
        self.last_updated = None

    def observe(self, value, at=None):
        self.pairs.append((self._clock() if at is None else at, value))
        self._fold()

    def _fold(self):
        pairs = self.pairs
        folded = self._folded
        total = len(pairs)
        if folded == total:
            return
        buckets = self.buckets
        counts = self.bucket_counts
        for when, value in pairs[folded:]:
            counts[bisect.bisect_left(buckets, value)] += 1
            self.sum += value
        self.count = total
        self._folded = total
        self.last_updated = pairs[-1][0]


histogram_ops = st.one_of(
    st.tuples(st.just("observe"), stamps, stamps,
              st.one_of(st.none(), stamps)),
    st.tuples(st.just("append"), stamps, stamps),
    st.tuples(st.just("fold")),
)


def same_float(a, b):
    return bits(a) == bits(b) or (a != a and b != b)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(DEFAULT_BUCKETS),
                 st.lists(stamps, max_size=5).map(tuple)),
       st.lists(histogram_ops, max_size=40))
def test_column_histogram_matches_sample_list(buckets, script):
    now = [0.0]
    histogram = Histogram("h", clock=lambda: now[0], buckets=buckets)
    ref = RefHistogram(lambda: now[0], buckets)
    add_time, add_value = histogram.appends
    for op in script:
        if op[0] == "observe":
            _, now[0], value, at = op
            histogram.observe(value, at)
            ref.observe(value, at)
        elif op[0] == "append":
            _, when, value = op
            add_time(when)
            add_value(value)
            ref.pairs.append((when, value))
        else:
            histogram._fold()
            ref._fold()
        samples = histogram.samples
        assert len(samples) == len(ref.pairs)
        for (when, value), (ref_when, ref_value) in zip(samples, ref.pairs):
            assert bits(when) == bits(ref_when)
            assert bits(value) == bits(ref_value)
        assert same_float(histogram.sum, ref.sum)
        assert histogram.count == ref.count
        assert histogram.bucket_counts == ref.bucket_counts
        if ref.last_updated is None:
            assert histogram.last_updated is None
        else:
            assert bits(histogram.last_updated) == bits(ref.last_updated)
