"""Machine-speed calibration for the benchmark's timings.

A shared host does not run at one speed: the same pure-Python loop
takes up to twice as long in one second as in the next, and the phases
last long enough to move the median of a whole run by 10-30%.  The
benchmark therefore times a small fixed kernel between calls, once
CAL_EVERY_S seconds have passed since the last timing, and states times
in *reference seconds*: wall seconds times CAL_REF_S over the median of
the kernel timings nearest them.  At the speed where the kernel takes
CAL_REF_S, reference seconds are wall seconds.  The timings come about
ten times a second, so a stretch of work that runs well past half a
second without a call boundary is scaled less well.

The kernel is the benchmark's own: a truncated product of two sparse
polynomials with Fraction coefficients in dicts keyed by exponent
tuples, the operation treeinv spends its time in.  It never calls
treeinv, so a change to the program moves the requests' times and not
the kernel's; the garbage collector is off while it runs, so the
program's live objects do not slow it either.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

CAL_EVERY_S = 0.1
# Kernel seconds that define the reference speed: about its time on a
# 2-vCPU x86-64 VM under CPython 3.11 while the host was quiet (busy,
# the same VM took up to 0.009 s).
CAL_REF_S = 0.005
# Kernel timings taken on each side of a stretch of work; their median scales it.
WINDOW = 2

_BASE = {(i, j): Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for i in range(5) for j in range(5)}


def kernel() -> dict:
    """(_BASE ** 2) * _BASE truncated at total degree 10; a few thousand Fraction products."""
    acc = _BASE
    for _ in range(2):
        out: dict = {}
        for (i, j), a in acc.items():
            for (k, l), b in _BASE.items():
                if i + j + k + l > 10:
                    continue
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + a * b
        acc = out
    return acc


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Kernel timings taken between calls, and the request time they give.

    A request's time is cut into segments at the calibrations that fall
    inside it (only ever between two public calls, see Tracer.span);
    the kernel's own time belongs to no segment.  Each segment is scaled
    by the timings around it and a request's reference seconds are the
    sum over its segments.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        for _ in range(3):  # warm the kernel up; the last one counts
            self.samples = [time_kernel()]
        self._last = perf_counter()
        # (request id, wall seconds, index of the timing before it)
        self.segments: list[tuple[int, float, int]] = []
        self._request: int | None = None
        self._start = 0.0

    def tick(self) -> None:
        """Time the kernel if CAL_EVERY_S has passed since the last timing."""
        if perf_counter() - self._last < CAL_EVERY_S:
            return
        if self._request is not None:
            self._close()
        self.sample()
        self._start = perf_counter()

    def sample(self) -> None:
        self.samples.append(time_kernel())
        self._last = perf_counter()

    def mark(self) -> int:
        """Index of the latest timing; anything timed now lies after it."""
        return len(self.samples) - 1

    def begin(self, request: int) -> None:
        self.tick()
        self._request = request
        self._start = perf_counter()

    def end(self) -> None:
        self._close()
        self._request = None

    def _close(self) -> None:
        self.segments.append((self._request, perf_counter() - self._start, self.mark()))

    def scale(self, mark: int) -> float:
        """Reference seconds per wall second for what ran just after timing `mark`.

        Call sample() once after the last request, so everything timed
        has a timing on both sides.
        """
        lo = max(0, mark - WINDOW + 1)
        return CAL_REF_S / statistics.median(self.samples[lo : mark + 1 + WINDOW])

    def request_seconds(self, count: int) -> tuple[list[float], list[float]]:
        """Wall and reference seconds of requests 0 .. count-1, calibrations left out."""
        self.sample()
        wall = [0.0] * count
        ref = [0.0] * count
        for request, seconds, mark in self.segments:
            wall[request] += seconds
            ref[request] += seconds * self.scale(mark)
        return wall, ref
