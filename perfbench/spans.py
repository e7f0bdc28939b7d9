"""Spans and counters recorded around calls into the library, from outside it.

A `Tracer` replaces a function attribute with a wrapper that records a span
(name, start, end, parent span) around each call and can add counts from the
call's result. `restore` puts every original back.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# on_result(counts, result) adds counts read from a call's return value
OnResult = Callable[[dict, Any], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._originals: list[tuple[object, str, Any]] = []

    def wrap(self, owner: object, attr: str, name: str,
             on_result: OnResult | None = None) -> None:
        """Record a span named `name` around every call of `owner.attr`."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.clock(), float("nan"),
                        self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, latest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        """Forget recorded spans and counts; installed wrappers stay."""
        self.spans.clear()
        self.counts.clear()


def covered_length(start: float, end: float,
                   intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    lo_run = hi_run = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                total += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        total += hi_run - lo_run
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [(s.end - s.start) - covered_length(s.start, s.end, children[k])
            for k, s in enumerate(spans)]


def layer_seconds(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a layer that
    re-enters itself is not counted twice.
    """
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        own[span.name] += self_s
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            inclusive[span.name] += span.end - span.start
    return dict(inclusive), dict(own)
