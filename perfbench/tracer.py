"""In-memory span tracer that wraps rindler's public functions from outside.

Every public function defined in one of the package's modules is wrapped
once, and the wrapper is installed under each name the package's modules
hold for it (its own module, every module that imported it by name, and
the package namespace), because that is where callers look it up at call
time. Nothing in `src/` changes; `remove()` puts the originals back.

A span is (name id, parent span id, start, end) in four flat lists; the
harness opens one `bench.call` root span per request, so every span of a
request descends from that root and shares its id as the request id.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

LAYERS = ("cli", "unruh", "channels", "correlations", "geometry", "qmat")
ROOT = "bench.call"


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self._patches = self._targets(package)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _targets(self, package):
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        return [
            (mod, attr, obj, wrappers[obj])
            for mod in [package, *modules]
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name):
        """Record a span opened by the harness itself (the request root)."""
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        try:
            yield sid
        finally:
            self.span_end[sid] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def clear(self):
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            spans.clear()

    def aggregate(self, totals: dict):
        """Add this pass's count, inclusive and self seconds per span name.

        Self time is a span's duration minus its direct children's
        durations; children nest inside their parent, so that is the part
        of the interval no child covers.
        """
        starts, ends = self.span_start, self.span_end
        child = [0.0] * len(starts)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        for i, nid in enumerate(self.span_name):
            entry = totals.setdefault(self.names[nid], [0, 0.0, 0.0])
            dur = ends[i] - starts[i]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]

    def spans(self) -> dict:
        """This pass's spans, times in microseconds from the first start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        return {
            "names": list(self.names),
            "fields": ["name", "parent", "start_us", "end_us"],
            "spans": [
                [n, p, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3)]
                for n, p, s, e in zip(self.span_name, self.span_parent,
                                      self.span_start, self.span_end)
            ],
        }
