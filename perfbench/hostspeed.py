"""Host-speed sampling, to take a shared host's drifting speed out of
the times the benchmark reports.

On a host whose cores are shared with other tenants, the same Python
code runs up to half again as slow in one minute as in the next.  Raw
times then say more about the neighbours than about the program.  A
``HostSpeed`` sampler runs a fixed pure-Python kernel from a SIGALRM
handler every ``INTERVAL_S`` seconds, in the measuring thread itself,
and records how long each kernel run took.  ``scaled(start, end)``
turns a wall-clock interval into *reference seconds*: the interval
minus the kernel runs inside it, times ``REFERENCE_S`` over the
kernel's mean time around the interval.  A reference second is a
second on a host where one kernel run takes ``REFERENCE_S``.

The kernel only reads the clock and does its own arithmetic, so the
program's outputs are unchanged; the runner checks that they are.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter
from typing import Optional

KERNEL_ITERATIONS = 3000
INTERVAL_S = 0.02
# One kernel run, in reference seconds.
REFERENCE_S = 1e-3
# Kernel runs this close to an interval give its host speed.
WINDOW_PAD_S = 0.25


def kernel() -> int:
    """Dict updates and small-int arithmetic, like the program's own
    inner loops; about 0.8 ms on a 2-core x86-64 VM with CPython 3.11."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        counts[i & 255] = counts.get(i & 255, 0) + i
        acc += (i * 7) % 13
    return acc + len(counts)


class HostSpeed:
    """Kernel timings taken on a timer while a block runs.

    Use it as a context manager around the code to be timed; it owns
    SIGALRM and ITIMER_REAL while active.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self, start: float, end: float) -> Optional[float]:
        """Mean kernel time within WINDOW_PAD_S of [start, end], or over
        every sample when none is that close; None without samples."""
        lo = bisect_left(self.starts, start - WINDOW_PAD_S)
        hi = bisect_right(self.starts, end + WINDOW_PAD_S)
        window = self.durations[lo:hi] or self.durations
        return fmean(window) if window else None

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall-clock interval [start, end]."""
        speed = self.kernel_s(start, end)
        if speed is None:
            raise RuntimeError("no host-speed samples were taken")
        own = sum(self.durations[bisect_left(self.starts, start):bisect_left(self.starts, end)])
        return (end - start - own) * REFERENCE_S / speed
