"""CPU-speed probe that runs on the workload's own thread.

On the 2-vCPU VM this benchmark was tuned on, the effective CPU speed drifts
by 10-15 % within seconds: a fixed pure-Python loop timed in 5 s blocks has
a coefficient of variation of 10 %, in CPU time as much as in wall time.
A probe timed before and after each op, or on the other vCPU, does not
follow that drift.  So while a pass runs, a SIGALRM handler times a fixed
pure-Python kernel (about 1 ms) every 50 ms, on the same thread, between the
program's bytecodes.  Program time between two samples divided by the
kernel time of the sample is program time at a fixed reference speed: the
speed at which the kernel takes ``REF_S``.  The kernel's own time is taken
out of the program's time.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REF_S = 0.0007  # the kernel's time on that VM, so reference seconds read
#                 close to its wall seconds


def _kernel() -> dict:
    # Fraction arithmetic and dict updates, like the package's normal form
    acc: dict = {}
    step = Fraction(1, 3)
    for i in range(150):
        acc[i % 7] = acc.get(i % 7, 0) + step * i
    return acc


class SpeedProbe:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.kernel_s.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(program seconds, reference seconds) spent in [start, end].

        A window too short to hold a sample takes the speed of the nearest
        sample before it (after it, for the first window).
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        nearest = self.kernel_s[max(lo - 1, 0)] if self.kernel_s else REF_S
        program = ref = 0.0
        previous = start
        for t, d in zip(self.starts[lo:hi], self.kernel_s[lo:hi]):
            program += t - previous
            ref += (t - previous) * REF_S / d
            previous, nearest = t + d, d
        program += end - previous
        ref += (end - previous) * REF_S / nearest
        return program, ref
