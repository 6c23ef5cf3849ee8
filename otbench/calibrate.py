"""A machine-speed reference that the benchmark's time metrics are paired with.

The speed of a shared machine drifts: on a 2-vCPU VM the same otkit pass
took anywhere between 1x and 1.7x its fastest time within minutes, which is
wider than any bound a gate can use.  A Pacer runs a fixed calibration
kernel between units of work (before and after each pass, and between the
parts of a long pass) and records when each call ran and how long it took.
A unit's time is then converted to reference seconds: its wall time times
REFERENCE_S over the mean duration of the two calibrations either side of
it.  Drift that slows otkit slows the kernel beside it alike and cancels; a
change in otkit does not touch the kernel, which calls neither otkit nor
BLAS, and shows in full.  Raw wall times are kept beside the reference ones.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

# Duration of one kernel() call on the reference machine (a 2-vCPU x86-64
# VM, Python 3.12, numpy 2.x, in its fast state).  Only a unit conversion:
# a reference second is the time that machine needs for the same work.
REFERENCE_S = 0.02

_ROWS = np.random.default_rng(5).standard_normal((64, 256))


def kernel():
    """Fixed work: an interpreter-bound loop, then small numpy calls
    (ufuncs, argpartition, reductions; no BLAS), about half the time each."""
    acc = 0
    table = {}
    for i in range(60000):
        table[i & 255] = i * 3 + (acc & 7)
        acc += table.get((i * 7) & 255, 0) % 11
    total = 0.0
    for i in range(800):
        x = _ROWS[i & 63]
        y = np.abs(x * 0.5 - 0.1)
        top = np.argpartition(y, -16)[-16:]
        total += float(y[top].sum()) + float((x * x).sum())
    return acc + total


class Pacer:
    """Calibration calls stamped in time.  Call it between units of work."""

    def __init__(self):
        self.starts = []
        self.ends = []
        kernel()  # first call pays for lazy set-up; not recorded

    def __call__(self):
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def factor(self, t):
        """Reference seconds per wall second at time t: REFERENCE_S over the
        mean duration of the last calibration before t and the first after."""
        i = bisect.bisect_right(self.ends, t) - 1
        around = [j for j in (i, i + 1) if 0 <= j < len(self.starts)]
        mean = sum(self.ends[j] - self.starts[j] for j in around) / len(around)
        return REFERENCE_S / mean

    def busy(self, t0, t1):
        """(wall, reference) seconds of work between calibrations within
        [t0, t1]; the calibrations' own time is left out."""
        wall = ref = 0.0
        for i in range(len(self.starts) - 1):
            a, b = self.ends[i], self.starts[i + 1]
            if a >= t0 and b <= t1:
                wall += b - a
                ref += (b - a) * self.factor(a)
        return wall, ref
