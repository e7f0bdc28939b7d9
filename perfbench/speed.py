"""Host speed, sampled while a run measures, and times adjusted to full speed.

The benchmark's host shares its cores. For stretches of seconds at a time the
same code runs up to ~1.7x slower, and how much of a 30 s run falls in such
stretches changes from run to run, so raw wall times of identical work spread
wider than any usable bound.

`SpeedMeter` runs a short fixed pure-Python loop, the probe, from a SIGALRM
handler every INTERVAL_S and records when each probe ran and how fast. The
speed of a probe is REFERENCE_PROBE_S divided by the time it took.
`adjusted` takes a span of measured time, removes the time its probes took,
and multiplies the rest by the host's mean speed over the span. Speed, not
slowdown, is averaged: a stretch at half speed does half the work per second.
The result is the span's length at the reference speed, in seconds.
"""
from __future__ import annotations

import bisect
import signal
import time
from typing import Callable

PROBE_LOOPS = 2000
# the probe's time at full speed on the machine recorded in README.md
REFERENCE_PROBE_S = 60e-6
INTERVAL_S = 0.01
# probes this close to a span's ends count for it, so that short spans get some
PAD_S = 2 * INTERVAL_S

# a point in a run: clock reading and the probe seconds spent before it
Mark = tuple[float, float]


def probe_loop(loops: int) -> int:
    total = 0
    for i in range(loops):
        total += i
    return total


class SpeedMeter:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []  # when each probe began, increasing
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far
        self._busy = False
        self._previous = None

    def probe(self, *_signal) -> None:
        if self._busy:  # a late signal during a probe: skip, never nest
            return
        self._busy = True
        began = self.clock()
        probe_loop(PROBE_LOOPS)
        took = self.clock() - began
        self.starts.append(began)
        self.speeds.append(REFERENCE_PROBE_S / took)
        self.spent += took
        self._busy = False

    def __enter__(self) -> SpeedMeter:
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return self.clock(), self.spent

    def speed(self, start: float, end: float) -> float:
        """Mean probe speed over [start, end], widened by PAD_S each side."""
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_right(self.starts, end + PAD_S)
        # no probe ran that close: the nearest one on each side stands in
        window = self.speeds[lo:hi] or self.speeds[max(0, lo - 1):lo + 1]
        if not window:
            raise RuntimeError("no speed probe ran during the run")
        return sum(window) / len(window)

    def adjusted(self, begin: Mark, end: Mark) -> float:
        """Seconds from begin to end, less probe time, at the reference speed."""
        (t0, spent0), (t1, spent1) = begin, end
        return (t1 - t0 - (spent1 - spent0)) * self.speed(t0, t1)
