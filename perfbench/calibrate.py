"""Machine-speed calibration: a fixed kernel timed between the benchmark's calls.

On the shared virtual machine the benchmark was written on, each vCPU
switches between a fast and a 1.7x slower state every 10-100 ms, and the
share of time spent slow drifts from one minute to the next, so the same
pass took from 2.6 to 4.1 s within a few minutes.  A kernel that depends
on neither the library nor the seed is timed in the gaps between calls,
evenly in time over a run.  A measured time times ``factor()`` (the
kernel's reference time over its mean time in the same run) is the time
the work takes at the reference speed.  A change in the library moves the
measured time but not the kernel, so it shows in full.
"""

import statistics
import time

import numpy as np

# about the mean time of one kernel rep on the machine the benchmark was
# written on (2 vCPU Intel Xeon VM, one BLAS thread): the speed that scaled
# times refer to
REF_REP_S = 2.0e-3
EVERY_S = 0.05  # one rep per this much time spent in calls
MAX_REPS = 40  # reps in one gap, after the longest calls

_Z = np.exp(1j * np.linspace(0.0, 3.0, 64)) * np.linspace(1.0, 2.0, 64)
_ZS = [complex(z) for z in _Z]


def kernel() -> complex:
    """Python-level complex arithmetic and small numpy array operations,
    the two kinds of work the library does."""
    s = 0j
    for k in range(1800):
        s += _ZS[k & 63] * 0.5 ** (k % 13)
    a = _Z.copy()
    for k in range(240):
        a = a * 0.999 + np.exp(-1e-3 * k) * _Z
        s += a.sum()
    return s


class Calibrator:
    """Kernel reps taken in the gaps between a run's calls."""

    def __init__(self):
        for _ in range(5):  # warm-up
            kernel()
        self.samples = []
        self._last = time.perf_counter()

    def rep(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def tick(self) -> None:
        """One rep for every ``EVERY_S`` since the last rep.

        Reps taken after a long call make up for the time no rep could be
        taken, so the reps sample the run evenly in time.
        """
        for _ in range(min(int((time.perf_counter() - self._last) / EVERY_S), MAX_REPS)):
            self.rep()

    def factor(self) -> float:
        """Reference speed over this run's speed: multiply a measured time by it."""
        if not self.samples:
            self.rep()
        return REF_REP_S / statistics.fmean(self.samples)
