"""Spans recorded from outside the program, around the benchmark's own calls.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (``-1`` for none) and ``op`` the id of the op it belongs to.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.

``NullTracer`` hands back the functions it is asked to wrap unchanged, so
an untraced run calls the program exactly as a user would.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

clock = time.perf_counter

_NULL_SPAN = nullcontext()


class NullTracer:
    """Records nothing and adds no wrapper around any call."""

    op = None

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return _NULL_SPAN


class Tracer:
    """Keeps every span of a run in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = None
        self._open: list[int] = []

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around each call.

        The body repeats ``span`` inline: a generator-based context manager
        would add about 2 us to every call.
        """
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            spans.append(None)
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op)


def _noop():
    return None


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_stats(spans: list[tuple], wall_s: float) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (summed self time), p50_us (median self
    time) and share (busy_s over ``wall_s``)."""
    by_name: dict[str, list[float]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        by_name.setdefault(name, []).append(own)
    return {
        name: {
            "calls": len(values),
            "busy_s": sum(values),
            "p50_us": statistics.median(values) * 1e6,
            "share": sum(values) / wall_s,
        }
        for name, values in by_name.items()
    }


def span_cost_s(calls: int = 20000) -> float:
    """Median added cost of one wrapped call, from a calibration loop."""
    tracer = Tracer()
    wrapped = tracer.wrap("calibration", _noop)
    samples = []
    for _ in range(5):
        start = clock()
        for _ in range(calls):
            _noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        samples.append((clock() - start - bare) / calls)
        tracer.spans.clear()
    return statistics.median(samples)
