"""Reference kernel that calibrates timings to a nominal host speed.

The benchmark shares a few cores of a host whose single-thread speed moves
by 15-50% over minutes, as neighbouring work comes and goes. Every
invocation of the program runs a little faster or slower with it, and so
does any fixed piece of code run at the same moment. The benchmark runs
this kernel between invocations and rescales each invocation's time by
``NOMINAL_S / reference time``; the result is the time the invocation
would have taken on a host on which the kernel takes ``NOMINAL_S``.

The kernel is the benchmark's own code and never calls the program, so a
change to the program leaves it alone. It mixes the three kinds of work
the program spends its time on: interpreter overhead, elementwise numpy
arithmetic and real FFTs, the last two on three 64^3 components, which is
beyond L2 like the larger workloads. Its time is the geometric mean of the
three parts, so that each part weighs the same whatever its length. On the
2-vCPU VM the benchmark was tuned on, this kernel tracked the host's speed
better than the same kernel on 32^3 arrays or than any one of its parts,
for the n = 32 workload as well as for the n = 64 one.
"""

from __future__ import annotations

import math
import time

# Geometric mean of the three parts' times on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, scipy 1.17) in its usual, not its fastest, phase.
NOMINAL_S = 0.041


class Reference:
    """Fixed inputs, built once; ``measure()`` times one pass of the kernel."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20241001)
        self._np = np
        self._x = rng.standard_normal((3, 64, 64, 64))
        self.samples: list[float] = []
        self.measure()  # warm-up: FFT plans, allocator

    def _interpreter(self) -> int:
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return total

    def _elementwise(self) -> float:
        np = self._np
        y = self._x
        for _ in range(12):
            y = np.sqrt(y * y + 1.0) - 0.5
        return float(y[0, 0, 0, 0])

    def _fft(self) -> float:
        import scipy.fft as sf

        x = self._x
        for _ in range(3):
            y = sf.irfftn(sf.rfftn(x, axes=(1, 2, 3)), s=x.shape[1:], axes=(1, 2, 3))
        return float(y[0, 0, 0, 0])

    def measure(self) -> float:
        """Run the kernel once; record and return its time in seconds."""
        clock = time.perf_counter
        parts = []
        for part in (self._interpreter, self._elementwise, self._fft):
            t0 = clock()
            part()
            parts.append(clock() - t0)
        t = math.exp(sum(math.log(p) for p in parts) / len(parts))
        self.samples.append(t)
        return t


def calibrated(times: list[float], before: list[float], after: list[float]) -> list[float]:
    """Each time rescaled to the nominal host speed, by the mean of the
    reference times measured just before and just after it."""
    return [t * NOMINAL_S / (0.5 * (b + a)) for t, b, a in zip(times, before, after)]
