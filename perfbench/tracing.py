"""Outside-in tracing: spans recorded around module-level functions.

The program is not edited.  A ``Tracer`` replaces a function *in the
namespace where callers look it up* with a wrapper that records one span
per call (name, start, end, parent span, operation id), calls the original
and restores every replaced attribute on ``close``.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one thread of calls.

    ``counters`` holds counts taken at the same boundaries, for work that a
    span's duration does not show (for example how many draws one call made).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def begin(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, token: tuple[int, int | None, float], name: str) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append(Span(span_id, parent, self.op, name, start, end))

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(args, kwargs) -> (key, amount)`` optionally adds to a
        counter on every call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(args, kwargs)
                tracer.count(key, amount)
            token = tracer.begin()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(token, name)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent, "op": s.op,
                                     "name": s.name, "start": s.start, "end": s.end}) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - _covered(children.get(s.span_id, []), s.start, s.end)
            for s in spans}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
