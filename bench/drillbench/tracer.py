"""In-memory span tracer and exact evaluation counters.

Spans are recorded from the benchmark's own code, around each call into a
drillvol layer: name, start, end, parent span, operation id and the number
of work items the call covered.  They stay in memory and are written out
when the run ends.  A disabled tracer records nothing, so untraced runs pay
only for an empty context manager per call.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: int
    n: int  # work items covered (samples, points, calls); 1 by default

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.observed: dict[str, list[float]] = defaultdict(list)
        self.op = 0
        self._stack: list[int] = []

    def next_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str, n: int = 1):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, n))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, module, attr: str, name: str):
        """Trace every call of ``module.attr`` made while the context is open.

        Reaches calls that drillvol makes internally (such as the junction
        builds inside ``smoothed_metric``) without touching its source.
        """
        if not self.enabled:
            yield
            return
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def observe(self, name: str, value: float) -> None:
        """Record a measured value that is not a duration (a count, a gap)."""
        if self.enabled:
            self.observed[name].append(float(value))

    # -- aggregation ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def per_item(self, name: str) -> list[float]:
        return [s.duration / s.n for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def child_totals(self, parent_name: str, child_name: str) -> list[float]:
        """Per ``parent_name`` span, the summed duration of its ``child_name`` children."""
        totals = {i: 0.0 for i, s in enumerate(self.spans) if s.name == parent_name}
        for s in self.spans:
            if s.name == child_name and s.parent in totals:
                totals[s.parent] += s.duration
        return list(totals.values())

    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """(span name, count, total seconds, self seconds), slowest self time first."""
        own = self.self_times()
        rows: dict[str, list] = {}
        for s, t in zip(self.spans, own):
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += t
        return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])

    def dump(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class CallCounter:
    """Counts calls of a warping pair's six callables, exactly."""

    FIELDS = ("f", "fp", "fpp", "g", "gp", "gpp")

    def __init__(self) -> None:
        self.calls = 0

    def wrap(self, pair):
        def counting(fn):
            def counted(r):
                self.calls += 1
                return fn(r)
            return counted

        return dataclasses.replace(pair, **{k: counting(getattr(pair, k)) for k in self.FIELDS})
