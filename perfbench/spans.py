"""In-memory spans recorded around calls into ngparse's modules.

A traced run swaps public functions of ngparse modules for wrappers that
record one span per call, and puts the originals back when it ends. Nothing
under ``src/`` changes: the spans sit at the module boundaries the engine,
guider, sampler and trainer already call through. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "note", "error")

    def __init__(self, name, start, end, parent=-1, group=None, note=None, error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.group = group  # program or training-step id
        self.note = note  # what the wrapper kept of the arguments
        self.error = error  # exception type name when the call raised

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans; nesting comes from the call stack of one thread."""

    def __init__(self):
        self.spans = []
        self.group = None
        self._stack = []

    def wrap(self, name, fn, note=None, new_group=False):
        """fn with a span around each call. note(*args) picks what to keep
        of the arguments; new_group starts a new group id at each call."""

        def traced(*args, **kwargs):
            if new_group:
                self.group = 0 if self.group is None else self.group + 1
            span = Span(
                name,
                0.0,
                0.0,
                self._stack[-1] if self._stack else -1,
                self.group,
                note(*args) if note else None,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class Target(NamedTuple):
    """A module attribute to trace, and how its spans are recorded."""

    module: object
    attr: str
    name: str
    note: Optional[Callable] = None
    new_group: bool = False


@contextmanager
def swapped(replacements):
    """Set each (module, attribute, value) for the duration of the block."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def patched(tracer: Tracer, targets):
    """Trace every call to each Target for the duration of the block."""
    return swapped(
        (t.module, t.attr, tracer.wrap(t.name, getattr(t.module, t.attr), t.note, t.new_group))
        for t in targets
    )


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end))
            for k in children[i]
        )
        covered = 0.0
        lo = hi = None
        for a, b in clipped:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(span.end - span.start - covered)
    return out


class Totals:
    """Per span name: calls, raised calls, total and self seconds."""

    def __init__(self, spans):
        selfs = self_times(spans)
        self.calls = {}
        self.errors = {}
        self.total_s = {}
        self.self_s = {}
        for span, own in zip(spans, selfs):
            n = span.name
            self.calls[n] = self.calls.get(n, 0) + 1
            self.errors[n] = self.errors.get(n, 0) + (span.error is not None)
            self.total_s[n] = self.total_s.get(n, 0.0) + (span.end - span.start)
            self.self_s[n] = self.self_s.get(n, 0.0) + own

    def count(self, name) -> int:
        return self.calls.get(name, 0)

    def failed(self, name) -> int:
        return self.errors.get(name, 0)

    def total(self, name) -> float:
        return self.total_s.get(name, 0.0)

    def own(self, name) -> float:
        return self.self_s.get(name, 0.0)
