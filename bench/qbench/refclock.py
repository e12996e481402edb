"""Timing on the pace of a fixed reference kernel.

The benchmark shares a few cores of a host whose speed swings by up to
about 1.8x with its other tenants' load, in phases of seconds to minutes.
CPU time swings with wall time, so it does not help.  The untraced run
therefore converts its wall-time intervals to the pace of a fixed NumPy
kernel (``SOLVES`` solves of a 5x5 complex system; no qunet code), which a
timer signal runs every ``PERIOD_S`` of wall time.  Each stretch of wall
time between two kernel runs is scaled by ``REFERENCE_S / k``, where ``k``
is the median time of the two kernel runs before it and the two after it;
the kernel's own time is left out.

A time on this pace is what the work would take on a machine where the
kernel takes ``REFERENCE_S``.  A change to qunet moves it as it moves wall
time; a slow phase of the host slows the kernel too and cancels out.  The
kernel times are kept, so a run also reports how fast the host was.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2          # wall time between kernel runs
REFERENCE_S = 1e-3      # kernel time at the reference pace
SOLVES = 150
SIDE = 2                # kernel runs on each side of a stretch that set its pace

_A = np.eye(5) * 2.0 + 0.1j + 1e-3 * np.arange(SOLVES)[:, None, None]
_B = np.ones((5, 3), dtype=complex)


def kernel() -> None:
    """The reference kernel."""
    for a in _A:
        np.linalg.solve(a, _B)


class RefClock:
    """Runs the kernel while started, and converts wall-time intervals
    measured meanwhile to the reference pace."""

    def __init__(self):
        self.kernels: list[tuple[float, float]] = []    # (start, end), wall time
        self._previous = None

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        kernel()
        self.kernels.append((t0, time.perf_counter()))

    def start(self) -> None:
        """Run the kernel SIDE times now, then every PERIOD_S."""
        for _ in range(SIDE):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer, then run the kernel SIDE times."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        for _ in range(SIDE):
            self._tick()

    @contextlib.contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    @contextlib.contextmanager
    def held(self):
        """Pause the timer for work that must not share the machine with
        the kernel, such as a child process; the work still gets kernel runs
        on both sides."""
        self.stop()
        try:
            yield
        finally:
            self.start()

    def durations(self) -> list[float]:
        return [end - start for start, end in self.kernels]

    def reference(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Durations of wall-time ``intervals`` on the reference pace, the
        kernel's own time left out.  Call once the clock is stopped."""
        ends = [end for _, end in self.kernels]
        durations = self.durations()
        paces = [REFERENCE_S / statistics.median(durations[max(0, i - SIDE):i + SIDE])
                 for i in range(len(self.kernels) + 1)]
        out = []
        for start, end in intervals:
            i = bisect.bisect_right(ends, start)    # the stretch after kernel i - 1
            total, t = 0.0, start
            while i < len(self.kernels) and self.kernels[i][0] < end:
                total += (self.kernels[i][0] - t) * paces[i]
                t = self.kernels[i][1]
                i += 1
            out.append(total + (end - t) * paces[i])
        return out
