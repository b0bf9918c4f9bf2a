"""In-memory spans around calls into the program, with self time.

A span opens when a wrapped function is entered (for a generator: each
time next() is called on it) and closes when it returns.  A span's self
time is its duration minus the time covered by the spans opened inside it;
calls nest strictly in one thread, so that covered time is the sum of the
direct children's durations.

Spans stay in memory and are written out when the benchmark ends.  A "hot"
function, one called more than about 10**4 times per run, is only folded
into per-name totals (calls, total time, self time): no record per call is
kept, but it still counts as covered time of the span that called it.
"""

from __future__ import annotations

import contextlib
import functools
import time

_DONE = object()


class Tracer:
    """Open-span stack, per-name totals, counters and the kept span records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.spans: list[tuple] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start fresh totals and counters; kept spans are not touched."""
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._seen: dict[str, set] = {}
        self._stack: list[list] = []

    def open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, keep: bool = True) -> None:
        end = self.clock()
        if not self._stack or self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[2]!r} closed out of order")
        fid, parent, name, start, covered = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += duration
        tot[2] += duration - covered
        if keep:
            self.spans.append((fid, parent, name, start, end, duration - covered))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def seen(self, name: str, key) -> None:
        """Count a use of key under name, and a reuse if it was used before."""
        keys = self._seen.setdefault(name, set())
        self.count(f"{name}.uses")
        if key in keys:
            self.count(f"{name}.reuses")
        else:
            keys.add(key)

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], "self_s": s[5]} for s in self.spans]


@contextlib.contextmanager
def paused(tracer: Tracer | None):
    """Run the body with tracing off (a no-op without a tracer)."""
    if tracer is None:
        yield
        return
    was = tracer.enabled
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = was


def traced(tracer: Tracer, fn, name: str, *, hot: bool = False,
           before=None, after=None):
    """fn wrapped in a span; before(args, kwargs) and after(result) are hooks."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame, keep=not hot)
        if after is not None:
            after(result)
        return result
    return wrapper


def traced_generator(tracer: Tracer, fn, name: str, *, hot: bool = False,
                     per_item=None):
    """Generator function fn wrapped so that every next() is one span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not tracer.enabled:
            return gen
        return _timed_next(tracer, gen, name, hot, per_item)
    return wrapper


def _timed_next(tracer, gen, name, hot, per_item):
    while True:
        frame = tracer.open(name)
        try:
            item = next(gen, _DONE)
        finally:
            tracer.close(frame, keep=not hot)
        if item is _DONE:
            return
        if per_item is not None:
            per_item(item)
        yield item


def patch_everywhere(modules, original, replacement) -> list[tuple]:
    """Rebind every module-level name bound to original; return the undo list.

    A function imported with `from x import f` is looked up in the importing
    module, so wrapping only its home module would miss those callers.
    """
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def unpatch(undo: list[tuple]) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)
