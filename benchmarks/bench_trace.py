"""In-memory spans and counts for the traced benchmark run.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``job`` identifies the job
whose spans belong together.  Span names are the per-layer metric names,
so a layer metric is the median, over jobs, of the summed durations of
the spans carrying its name.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Tracing switched off: every span is the same empty context."""

    enabled = False
    job = None
    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = []
        self.job = None
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def count(self, name, value):
        self.counts.append((name, value, self.job))

    def _per_job(self):
        totals = {}
        for name, start, end, _parent, job in self.spans:
            totals[(name, job)] = totals.get((name, job), 0.0) + (end - start)
        return totals

    def layer_values(self):
        """Metric name -> list of per-job values (ms for spans)."""
        values = {}
        for (name, _job), seconds in self._per_job().items():
            values.setdefault(name, []).append(seconds * 1000.0)
        for name, value, _job in self.counts:
            values.setdefault(name, []).append(value)
        return values

    def self_times_ms(self):
        """Span name -> median self time in ms: duration minus the time
        covered by direct children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_job = {}
        for i, (name, start, end, _parent, job) in enumerate(self.spans):
            key = (name, job)
            per_job[key] = per_job.get(key, 0.0) + (end - start - child[i])
        by_name = {}
        for (name, _job), seconds in per_job.items():
            by_name.setdefault(name, []).append(seconds * 1000.0)
        return {name: statistics.median(v) for name, v in sorted(by_name.items())}

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )
            fh.write("\n")
