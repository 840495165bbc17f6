"""Scaling measured times to a reference machine speed.

The speed of a shared machine drifts by tens of percent over seconds to
minutes, in and out of a slow state, often within one job.  While work is
timed, ``Sampler`` runs a short fixed kernel from a SIGALRM handler every
INTERVAL_S seconds, in the thread doing the work, and an interval is scaled
by the kernel's reference time over its median time in and around that
interval.  Pure-Python and numpy code slow down by different amounts, so
each workload names the kernel that matches its dominant code.  The kernels
use no tuttebound code, so a change to the program cannot move them.
"""

from __future__ import annotations

import signal
import statistics
import time

import mpmath
import numpy as np

INTERVAL_S = 0.05

_POINTS = np.random.default_rng(0).random(4000) - 0.5 + 1j * (
    np.random.default_rng(1).random(4000) - 0.5)


def python_kernel() -> float:
    """Seconds taken by integer, dict, float and mpmath arithmetic."""
    t0 = time.perf_counter()
    x, table = 1, {}
    for i in range(600):
        x = (x * 1103515245 + 12345) % (1 << 61)
        table[i & 255] = x
    s = 0.0
    for i in range(400):
        s += (i * 0.5) ** 0.5
    with mpmath.workdps(40):
        z, w = mpmath.mpc(1, 1), mpmath.mpc("0.999", "0.001")
        for _ in range(40):
            z = z * w + 1
    return time.perf_counter() - t0


def numpy_kernel() -> float:
    """Seconds taken by raster-style numpy work: scale, floor, unique."""
    t0 = time.perf_counter()
    v = _POINTS * (0.9 + 0.1j) + 0.01
    ix = np.floor((v.real + 1.0) * 128).astype(np.int64)
    iy = np.floor((v.imag + 1.0) * 128).astype(np.int64)
    np.unique(iy * 256 + ix)
    return time.perf_counter() - t0


# Each kernel's time at the reference speed: roughly its median inside the
# workloads on a 2-core 2.0 GHz Xeon VM under Python 3.11.
REFERENCE_S = {python_kernel: 8.0e-4, numpy_kernel: 8.5e-4}


class Sampler:
    """Times `kernel` every INTERVAL_S seconds while the ``with`` block runs.

    ``samples`` holds the kernel times in order, with one taken on entry and
    one on exit.  Work that reads ``len(samples)`` before and after itself
    learns which samples ran inside it (their time is in its own) and which
    bracket it.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(self.kernel())

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def spent(self, first: int, end: int) -> float:
        """Seconds the samples first..end-1 took."""
        return sum(self.samples[first:end])

    def factor(self, first: int, end: int) -> float:
        """Scale for work during which samples first..end-1 ran.

        The median covers those samples and the one on each side of them; a
        garbage collection that lands in one sample does not move it.
        """
        window = self.samples[max(0, first - 1):end + 1]
        return REFERENCE_S[self.kernel] / statistics.median(window)
