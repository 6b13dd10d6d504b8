"""Request timing and span recording for the benchmark's closed loop.

The workloads reach buchi4 only through ``rec.request`` (one request of the
single caller, timed for the point-latency metrics) and ``rec.call`` (one
public call inside a request).  ``Recorder`` keeps request latencies and
nothing else; ``Tracer`` also keeps a span per body, request and call in
memory, so the untraced run pays no per-call bookkeeping.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Untraced run: times requests, passes calls straight through."""

    def __init__(self):
        self.batches = []  # request latencies, one list per batch

    def body(self, fn, *args):
        self.batches.append([])
        return fn(*args)

    def request(self, name, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.batches[-1].append(perf_counter() - t0)
        return out

    def best_latencies(self):
        """Each request's fastest latency over the batches; every batch
        issues the same requests in the same order."""
        return [min(times) for times in zip(*self.batches)]

    def call(self, name, fn, *args, label=None):
        return fn(*args)


class Tracer(Recorder):
    """Traced run: every body, request and call becomes a span
    (name, start, end, parent, trace, tag).  ``trace`` is the index of the
    outermost span, shared by every span of one body; ``tag`` is
    ``label(result)`` when a label function is given."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self._open = []

    def _span(self, name, fn, args, label=None):
        idx = len(self.spans)
        parent, trace = self._open[-1] if self._open else (None, idx)
        self.spans.append(None)
        self._open.append((idx, trace))
        start = perf_counter()
        try:
            out = fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
        tag = None if label is None else label(out)
        self.spans[idx] = (name, start, end, parent, trace, tag)
        return out

    def body(self, fn, *args):
        self.batches.append([])
        return self._span("body", fn, args)

    def request(self, name, fn, *args):
        t0 = perf_counter()
        out = self._span(name, fn, args)
        self.batches[-1].append(perf_counter() - t0)
        return out

    def call(self, name, fn, *args, label=None):
        return self._span(name, fn, args, label)

    def self_times(self):
        """{trace: [(name, tag, seconds)]}: each span's duration minus the
        part of it that its children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = defaultdict(list)
        for (name, _, _, _, trace, tag), secs in zip(self.spans, own):
            out[trace].append((name, tag, secs))
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "trace", "tag")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
