"""Machine-speed calibration shared by the benchmark's processes.

Other tenants of a shared machine slow every interpreter on it by roughly
the same factor, for seconds to minutes at a time.  ``speed()`` times a fixed slice of
interpreter work and divides the reference machine's time for it by the time
measured now, so a timing multiplied by ``speed()`` reads in reference-machine
seconds and such slowdowns cancel.  The slice uses no coulombwf code, so no
change to the program can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Mean seconds of slice_seconds() on the reference machine (2-core Intel Xeon
# at 2.1 GHz, Python 3.11.7), over 1000 slices.
REFERENCE_S = 0.0032


def _step(r: float, y: tuple[float, float], h: float) -> tuple[float, float]:
    du = -(2.0 / r) * y[1] + (0.25 + 2.0 / (r * r)) * y[0]
    return y[0] + h * y[1], y[1] + h * du


def slice_seconds() -> float:
    """Seconds for the fixed slice, collector off so that the program's heap
    cannot slow it.  Half is big rational arithmetic, half is float stepping
    through small function calls and tuples, the two kinds of work the
    program does."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(1, i)
        y = (1.0, 0.0)
        r = 1.0
        for _ in range(3000):
            y = _step(r, y, 1e-3)
            r += 1e-3
            scale = max(abs(y[0]), abs(y[1]))
            y = (y[0] / scale, y[1] / scale)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed(samples: list[float]) -> float:
    """Machine speed relative to the reference, from slice_seconds() samples."""
    return REFERENCE_S / statistics.mean(samples)


class Sampler:
    """Times a slice every ``interval`` seconds of wall time, from a SIGALRM
    handler, so that long requests are sampled while they run.

    ``spent`` is the wall time the handler has taken; a caller that times a
    region subtracts the growth of ``spent`` over it.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a slice is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(slice_seconds())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
