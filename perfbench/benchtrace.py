"""In-memory span tracing by rebinding a package's public functions.

A `Tracer` wraps chosen functions from outside the program: it replaces
every module attribute that is the original function object with a
wrapper that records a span and updates counters, and puts every
original back when it is closed.  Nothing in the traced package changes
on disk, and code that captured an original before `install` (the
benchmark's own output checks) keeps calling the original, untraced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Sequence

# span record fields
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans are lists [name, start, end, parent index, op id]; a parent of
    -1 marks a root.  Counts are keyed "<layer>.<counter>"."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._rebound: list[tuple] = []   # (module, attribute, original)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op=None):
        """A span opened by the caller, e.g. one per benchmark op; spans of
        wrapped functions called inside it carry its op id."""
        prev_op = self.op
        if op is not None:
            self.op = op
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            self.op = prev_op

    def wrap(self, layer: str, fn: Callable, count: Callable | None = None):
        """Wrapper recording a `layer` span around `fn` and counting the
        call; `count(counts, args, result)` adds layer-specific counts for
        calls that return."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            self.counts[f"{layer}.calls"] += 1
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def install(self, targets: Sequence[tuple]) -> None:
        """Rebind each (module, attribute, layer, count) target in every
        loaded module of the package that holds the same function object
        (the defining module, the package namespace and every importer)."""
        for module_name, attr, layer, count in targets:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(layer, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == self.package or
                                       mod_name.startswith(self.package + ".")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._rebound.append((mod, name, original))

    def restore(self) -> None:
        """Put back every original that `install` replaced."""
        while self._rebound:
            mod, name, original = self._rebound.pop()
            setattr(mod, name, original)

    def rebound(self) -> list[tuple]:
        return list(self._rebound)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans: Sequence[Sequence]) -> dict:
    """Total self time per span name: each span's duration minus the
    durations of its direct children (children of one span never overlap
    in a single thread)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    totals: defaultdict = defaultdict(float)
    for s, t in zip(spans, own):
        totals[s[NAME]] += t
    return dict(totals)
