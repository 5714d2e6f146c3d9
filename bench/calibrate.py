"""A fixed calibration kernel that measures the host's current speed.

The host this benchmark was built on changes speed by up to 2x for seconds
to minutes at a time, as other machines' load moves. The kernel below took
0.93-1.0 ms when the host was quiet and up to twice that when it was busy,
and an optimiser call slowed by the same factor: over 2.5 minutes,
the median of a call's time divided by the kernel's time beside it moved by
2% between 15 s windows, while the call's raw median moved by 19%.

So every time the benchmark reports is scaled to the host's reference speed:
the measured time multiplied by REFERENCE_S over the kernel's time measured
next to it. The kernel uses Python and small numpy operations, the mix that
cddohs's hot paths are made of, and never calls cddohs, so a change to the
program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's time on the development host when quiet
REFERENCE_S = 1.0e-3
ITERATIONS = 100


class Kernel:
    def __init__(self):
        self.rng = np.random.Generator(np.random.PCG64(1))
        self.x = self.rng.random(10)
        self.y = self.rng.random(10)

    def seconds(self) -> float:
        """Time one run of the kernel."""
        rng, x, y = self.rng, self.x, self.y
        acc = 0.0
        t = time.perf_counter()
        for _ in range(ITERATIONS):
            m = int(rng.integers(10))
            u = rng.random()
            z = np.clip(x * u + (y - x) * 0.5, -1.0, 1.0)
            acc += float(np.sum(z * z)) + x[m] / (y[m] + 1.0)
        return time.perf_counter() - t


def scaled(seconds: float, kernel_s: float) -> float:
    """seconds at the reference speed, given the kernel's time beside it."""
    return seconds * REFERENCE_S / kernel_s
