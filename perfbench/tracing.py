"""In-memory spans around the benchmark's calls into the isored modules.

A span records its name, start, end, parent span and instance id.  Spans are
kept in memory while the benchmark runs and written out once at the end.
The self time of a span is its duration minus the part covered by its
children; calls are closed-loop and single-threaded, so children never
overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracer used with tracing off: every span is a shared no-op context."""

    def span(self, name, instance=None):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None, instance]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, instance=None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Self time of every span, indexed like ``spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def select(self, name, parent=None):
        """Indices of the spans called ``name`` whose parent is called ``parent``."""
        out = []
        for i, (n, _, _, p, _) in enumerate(self.spans):
            if n != name:
                continue
            if parent is not None and (p is None or self.spans[p][0] != parent):
                continue
            out.append(i)
        return out

    def duration(self, index):
        return self.spans[index][2] - self.spans[index][1]

    def durations(self, name, parent=None):
        return [self.duration(i) for i in self.select(name, parent)]

    def write(self, path, extra=None):
        own = self.self_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": name,
                "start_s": start - t0,
                "end_s": end - t0,
                "self_s": own[i],
                "parent": parent,
                "instance": instance,
            }
            for i, (name, start, end, parent, instance) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, **(extra or {})}, fh)
