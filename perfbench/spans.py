"""In-memory spans recorded around calls into the program's modules.

A `Tracer` replaces a function or method with a wrapper that records
one span per call: name, start, end, the index of the enclosing span
(-1 at the top) and optional attributes computed from the call's
arguments and result. Wrappers are installed where callers look the
name up (every module global bound to the function, or the class
attribute for a method), so the program's own files are not edited.
`Tracer.installed` restores the originals on exit.

Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children.

    Spans come from one synchronous call stack, so a span's children
    lie inside it and never overlap one another.
    """
    selfs = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            selfs[s.parent] -= s.duration
    return selfs


class Tracer:
    """Records spans for the callables it wraps; spans stay in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """`fn` wrapped to record a span; `attrs(args, kwargs, result)`
        returns the span's attributes and runs outside the timed part."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
            if attrs is not None:
                spans[idx].attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets, package: str):
        """Wrap every target for the duration of the block.

        A target is (span name, owner, attribute, attrs or None). When
        the owner is a class, its attribute is replaced; when it is a
        module, every module of `package` that binds the same function
        object under the same name gets the wrapper.
        """
        undo = []
        try:
            for name, owner, attr, attrs in targets:
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original, attrs)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [m for key, m in list(sys.modules.items())
                               if (key == package or key.startswith(package + "."))
                               and getattr(m, attr, None) is original]
                for holder in holders:
                    setattr(holder, attr, wrapped)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)


def wrapper_cost_s() -> float:
    """Seconds one traced call adds over a plain call, measured on a
    no-op; attribute functions are not included."""
    calls = 20000

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    timings = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - t0)
    return max(0.0, (timings[1] - timings[0]) / calls)


@dataclass
class CallStats:
    calls: int
    busy_s: float
    self_s: float
    p50_s: float


def call_stats(spans, name: str, selfs=None) -> CallStats:
    """Aggregate the spans named `name`; `selfs` is `self_times(spans)`.

    Busy time counts only the outermost span of a nested run of the
    same name, so recursion is not counted twice.
    """
    selfs = self_times(spans) if selfs is None else selfs
    picked = [i for i, s in enumerate(spans) if s.name == name]
    outer = [i for i in picked if not under(spans, i, lambda s: s.name == name)]
    durations = [spans[i].duration for i in picked]
    return CallStats(
        calls=len(picked),
        busy_s=sum(spans[i].duration for i in outer),
        self_s=sum(selfs[i] for i in picked),
        p50_s=statistics.median(durations) if durations else 0.0,
    )


def under(spans, idx: int, scope) -> bool:
    """True when span `idx` has an ancestor for which `scope(span)` holds."""
    p = spans[idx].parent
    while p >= 0:
        if scope(spans[p]):
            return True
        p = spans[p].parent
    return False
