"""Host-speed sampling, so that timings can be stated at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up to
half from one stretch of tens of seconds to the next. A pass that lands in a
slow stretch reads that much slower even though the program did the same work.
To take the drift out, a fixed pure-Python loop (``reference_loop``) is timed
every ``INTERVAL_S`` of wall time, from a SIGALRM handler, in the middle of the
program's own work. Each stretch of work between two samples is then scaled by
``REFERENCE_LOOP_S`` over the loop time measured around it:

    at_reference_s = sum(work_s * REFERENCE_LOOP_S / loop_s)

The loop does not touch draftkit, so a change to the program cannot move it;
the time spent in the handler is left out of the work. ``raw`` keeps the
unscaled seconds.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

INTERVAL_S = 0.25
LOOP_N = 4_000
LOOP_REPEATS = 3
# Loop time on the reference host (2-vCPU Xeon VM, Python 3.11.7) in a
# typical stretch of a pass; scaled timings are in seconds at that speed.
REFERENCE_LOOP_S = 0.0025


class _Cell:
    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int) -> None:
        self.row = row
        self.col = col


def _mix(x: int, y: int) -> int:
    return (x * y) ^ (x >> 1)


def reference_loop() -> None:
    """Calls, small objects, attribute reads, tuples and a dict: the program's kind of work.

    Of the loops tried, this one followed the program's pass times most
    closely. Its dict stays at 256 entries, so sampling adds nothing to
    peak_rss_mb.
    """
    d: dict = {}
    for i in range(LOOP_N):
        c = _Cell(i & 15, (i >> 4) & 15)
        d[(c.row, c.col)] = _mix(c.row, c.col) + len(d)


def loop_time() -> float:
    """Fastest of a few back-to-back loops, which drops the odd interrupt.

    The garbage collector is held off meanwhile, so that the size of the
    program's heap does not change the loop's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(LOOP_REPEATS):
            t0 = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return best


class Sampler:
    """Times the reference loop at start, every INTERVAL_S while running, and at stop."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (begin, end, loop_s)

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        loop_s = loop_time()
        self.samples.append((t0, perf_counter(), loop_s))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def raw(self) -> float:
        """Seconds of work between start and stop, without the time spent sampling."""
        return sum(b[0] - a[1] for a, b in zip(self.samples, self.samples[1:]))

    def at_reference(self) -> float:
        """Seconds of work, each stretch scaled to the reference loop time."""
        return sum(
            (b[0] - a[1]) * REFERENCE_LOOP_S / ((a[2] + b[2]) / 2)
            for a, b in zip(self.samples, self.samples[1:])
        )
