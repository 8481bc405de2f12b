"""A gauge of the machine's speed, taken during each run.

On a shared machine the speed of the same numpy code drifts by tens of
percent between minutes, in phases that last seconds to minutes, so two
runs of the same work can differ by more than a benchmark bound.  The gauge
times a fixed numpy kernel (an ``exp``, a stable sort of integer keys, two
gathers and a ``bincount``, the operations the renderer spends its time in)
between the measured operations.  Over 15 s windows, the ratio of a
5000-Gaussian render's time to a larger version of this kernel stayed
within +-2.5% while the render itself moved by +-10%, so scaling a run's
times by ``REF_MS / median kernel time`` reports them at one fixed machine
speed.

The kernel's inputs are fixed, not drawn from the run's seed, and nothing in
it calls the program: a change to the program moves the measured times but
not the gauge.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

N = 60_000
KEYS = 16_384
# The scale: times are reported as if the kernel took this long.  It is
# about the kernel's median on the machine the reference figures were taken
# on, so scaled times stay close to wall times there.
REF_MS = 7.5


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal(N)
        self.keys = rng.integers(0, KEYS, N)
        self.ms: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            w = np.exp(-0.5 * self.x * self.x)
            order = np.argsort(self.keys, kind="stable")
            np.bincount(self.keys[order], weights=w[order], minlength=KEYS)
            self.ms.append((time.perf_counter() - t0) * 1e3)

    def median_ms(self, start: int = 0, stop: int | None = None) -> float:
        return statistics.median(self.ms[start:stop])

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Multiplier that takes wall times measured while samples
        ``start:stop`` were taken to the reference speed."""
        return REF_MS / self.median_ms(start, stop)
