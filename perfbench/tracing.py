"""In-memory span tracing from outside the program.

The tracer replaces functions at the module attributes their callers look
up at call time (``lrpca.solver.truncated_svd`` and so on) with wrappers
that record one span per call: name, start, end, parent span, task id and
whether the call raised.  Nothing inside ``src/`` changes.  Spans stay in
memory until the run ends; a layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""

import functools
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent task failed")


class Tracer:
    """Records spans for wrapped callables; install/uninstall swap them in."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)  # reserve the slot so children point at it
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        failed = True
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.task, failed)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, targets):
        """Patch every ``(owner, attribute, span_name)`` in ``targets``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span: duration minus the union of its children's
    intervals clipped to the span."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    out = []
    for sp, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[k].start, sp.start),
                              min(spans[k].end, sp.end)) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def aggregate(spans, tasks=None):
    """Per span name: calls, inclusive seconds, self seconds and failed
    calls, over the spans whose task id is in ``tasks`` (all when None)."""
    selfs = self_times(spans)
    agg = {}
    for sp, own in zip(spans, selfs):
        if tasks is not None and sp.task not in tasks:
            continue
        a = agg.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "failed": 0})
        a["calls"] += 1
        a["s"] += sp.end - sp.start
        a["self_s"] += own
        a["failed"] += int(sp.failed)
    return agg
