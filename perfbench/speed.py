"""Host speed probe: scales measured times to a fixed reference speed.

On a shared virtual machine the vCPU alternates, for seconds at a time,
between a fast and a slow state (on a 2-vCPU 2.0 GHz Xeon virtual machine,
up to about 1.9x apart), which moves any wall-clock figure of a run by tens
of percent.  A short pure-Python kernel, timed between queries, tracks that
state.  Each measured interval is scaled by reference / (mean kernel time of
the samples taken just before and just after it), so figures read as
seconds at the reference speed: on a host that stays in its fast state they
equal wall time.  The program's own work never runs inside the kernel, so a
change to the program moves the scaled figures exactly as it moves the
wall-clock ones.

The slow state does not slow all code alike: rational arithmetic slows more
than machine-word integer arithmetic.  So each workload is scaled by the
kernel whose arithmetic matches its own (measured: a rational kernel
mis-tracks the F_p workload by 9% between the two states, a modular one by
2%).
"""

import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

INTERVAL_S = 0.2  # least wall time between two samples
REPEATS = 3  # a sample is the fastest of this many kernel runs


def rational_kernel():
    """Forward elimination of a fixed 10x10 rational matrix."""
    rng = random.Random(0)
    n = 10
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        pivot = m[r][r] or Fraction(1)
        for i in range(r + 1, n):
            f = m[i][r] / pivot
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
    return m


def modular_kernel():
    """Forward elimination of a fixed 24x24 matrix over F_32003."""
    p = 32003
    rng = random.Random(0)
    n = 24
    m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        inv = pow(m[r][r] or 1, p - 2, p)
        for i in range(r + 1, n):
            f = m[i][r] * inv % p
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
    return m


# kernel -> its time in the fast state of the 2.0 GHz Xeon vCPU (1st percentile)
KERNELS = {
    "rational": (rational_kernel, 0.0017),
    "modular": (modular_kernel, 0.0009),
}


class SpeedProbe:
    def __init__(self, kernel="rational"):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.times = []  # perf_counter at the end of each sample
        self.costs = []  # kernel seconds of each sample

    def sample(self):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.costs.append(best)

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scaled(self, start, end):
        """end - start in seconds at the reference speed, from the samples
        bracketing the interval (take one before start and one after end)."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, end)
        around = [self.costs[i] for i in (before, after) if 0 <= i < len(self.costs)]
        return (end - start) * self.reference_s * len(around) / sum(around)
