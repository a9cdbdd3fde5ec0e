"""Spans and counters recorded from outside the package.

A traced pass replaces selected public functions of ``surfspline`` with
thin wrappers.  Each wrapper opens a span (name, start, end, parent span,
operation id) around the call and, after the call returns, may read
counters off the arguments and the returned value.  Nothing in the package
is edited: a function is wrapped under every module attribute that holds
it, so callers that imported it by name see the wrapper too, and
``Tracer.restore`` puts every original back.

Spans stay in memory; ``Tracer.dump`` writes them out once the pass ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self._stack = []
        self.op = 0
        self.op_boundary = None  # span name whose every opening starts a new op
        self.counters = defaultdict(float)
        self.maxima = {}
        self.minima = {}
        self._patched = []  # (owner, attribute, original)

    # -- spans --------------------------------------------------------------
    @contextmanager
    def span(self, name):
        if name == self.op_boundary:
            self.op += 1
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, key, value=1.0):
        self.counters[key] += float(value)

    def high(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, float("-inf")), float(value))

    def low(self, key, value):
        self.minima[key] = min(self.minima.get(key, float("inf")), float(value))

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls).

        Self time is a span's duration minus that of its direct children;
        inclusive time skips spans nested in a span of the same name, so
        recursion is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            acc = out[name]
            acc[1] += (t1 - t0) - child[i]
            acc[2] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                acc[0] += t1 - t0
        return out

    def top_level_seconds(self):
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def dump(self, path, extra=None):
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "maxima": self.maxima,
            "minima": self.minima,
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- wrappers -----------------------------------------------------------
    def wrap(self, module, attr, span_name, on_return=None):
        """Wrap ``module.attr`` wherever a loaded surfspline module holds it."""
        original = getattr(importlib.import_module(module), attr)
        self._patched += patch_everywhere(original, self._wrapper(original, span_name, on_return))

    def wrap_method(self, module, cls_name, attr, span_name):
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, span_name, None))

    def _wrapper(self, fn, span_name, on_return):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(tracer, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def restore(self):
        unpatch(self._patched)
        self._patched.clear()


def patch_everywhere(original, replacement):
    """Point every surfspline module attribute holding ``original`` at
    ``replacement``; returns the (owner, attribute, original) records."""
    records = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "surfspline" or name.startswith("surfspline.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                records.append((mod, attr, original))
                setattr(mod, attr, replacement)
    if not records:
        raise LookupError(f"{original!r} is held by no loaded surfspline module")
    return records


def unpatch(records):
    for owner, attr, original in reversed(records):
        setattr(owner, attr, original)
