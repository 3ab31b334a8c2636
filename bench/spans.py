"""Span tracer for the traced benchmark run.

``Tracer.wrap`` turns a callable into one that records a span (name,
start, end, parent) in memory; ``layers.py`` applies it where heightlab
looks its layers up, so the program itself is unchanged.  Potential
callables run hundreds of thousands of times per workload, so they are
*leaf counters* instead: their time and element counts are summed and
their time is charged to the enclosing span, which keeps self times
exact without storing one span per call.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import contextmanager

import numpy as np

POTENTIAL_FIELDS = ("v", "vp", "vpp", "v0", "v0p", "v0pp", "g", "gp", "gpp")


class Tracer:
    """In-memory spans plus leaf counters, written out when the run ends."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, leaf seconds inside]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.leaf_s = 0.0
        self.leaf_evals = 0

    # -- recording ------------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Span-recording wrapper; ``after(result, args, kwargs)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap_leaf(self, fn):
        @functools.wraps(fn)
        def counted(x):
            t0 = time.perf_counter()
            out = fn(x)
            dt = time.perf_counter() - t0
            self.leaf_s += dt
            self.leaf_evals += int(np.size(x))
            if self._stack:
                self.spans[self._stack[-1]][4] += dt
            return out

        return counted

    def wrap_potential(self, pot):
        """Copy of ``pot`` whose nine callables are leaf counters."""
        return dataclasses.replace(
            pot, **{f: self.wrap_leaf(getattr(pot, f)) for f in POTENTIAL_FIELDS}
        )

    # -- analysis -------------------------------------------------------------

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        out = []
        for rec in self.spans:
            if rec[0] != name:
                continue
            if parent is not None and (rec[3] < 0 or self.spans[rec[3]][0] != parent):
                continue
            out.append(rec[2] - rec[1])
        return out

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def child_time(self, name: str, child: str) -> float:
        """Seconds spent in direct ``child`` spans of ``name`` spans."""
        return float(sum(self.durations(child, parent=name)))

    def self_times(self) -> dict[str, float]:
        """Self time per span name, plus ``potential`` for the leaf counters.

        A span's self time is its duration minus its direct child spans and
        the leaf time charged to it; the values sum to the root duration.
        """
        children = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                children[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = {"potential": self.leaf_s}
        for i, rec in enumerate(self.spans):
            own = rec[2] - rec[1] - children[i] - rec[4]
            out[rec[0]] = out.get(rec[0], 0.0) + own
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "leaf_s": leaf,
            }
            for name, start, end, parent, leaf in self.spans
        ]
