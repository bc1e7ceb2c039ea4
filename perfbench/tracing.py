"""In-memory spans for the traced benchmark run.

A span is ``[name, start, end, parent, op]``: start and end are
``perf_counter`` seconds, ``parent`` the index of the enclosing span (-1 for
none) and ``op`` the index of the op it belongs to (-1 outside ops).  Spans
are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class OpError:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"OpError({self.text!r})"


class Recorder:
    """Times the ops of an untraced pass and keeps their results."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.results: list = []

    def op(self, body):
        start = perf_counter()
        try:
            result = body()
        except Exception as exc:  # a failed op is counted, not fatal
            result = OpError(exc)
        self.latencies.append(perf_counter() - start)
        self.results.append(result)
        return result


class Tracer(Recorder):
    """Records spans around the layer calls of each op of a traced pass."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self._op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def op(self, body):
        """Run one op (``body`` makes the layer calls) inside an op span."""
        self._op += 1
        span = len(self.spans)
        with self.span("op"):
            try:
                result = body()
            except Exception as exc:  # a failed op is counted, not fatal
                result = OpError(exc)
        _, start, end, _, _ = self.spans[span]
        self.latencies.append(end - start)
        self.results.append(result)
        return result

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds.

        Self time is a span's duration minus its direct children's.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out


def per_pass_totals(tracers: list[Tracer]) -> dict[str, dict]:
    """``Tracer.totals`` averaged over passes, one tracer per pass."""
    out: dict[str, dict] = {}
    for tracer in tracers:
        for name, row in tracer.totals().items():
            acc = out.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                acc[key] += value / len(tracers)
    return out


def write_spans(path, tracers: list[Tracer]) -> None:
    """Write the spans of each traced pass, one list per pass, as gzip JSON."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(
            {"fields": ["name", "start", "end", "parent", "op"], "passes": [t.spans for t in tracers]},
            fh,
        )
