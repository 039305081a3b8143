"""Host speed, from a fixed reference kernel timed in between the work.

On a shared host the same code can run a third slower for a minute at a
time, and the slow spells are longer than a run, so wall times of separate
runs cannot be compared directly. A run therefore times a small fixed numpy
kernel every quarter second, outside the timed operations, and scales each
wall time by NOMINAL_S over the kernel's median time around that moment.
A scaled time is the time the operation would have taken at the host speed
where the kernel takes NOMINAL_S. The kernel is the benchmark's own code, so
no change to the program under test changes it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The kernel's typical time on the reference host: a 2-core KVM Xeon
# (Sapphire Rapids) with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31 on one
# thread. Scaled times there read close to raw ones.
NOMINAL_S = 0.007
KERNEL_STEPS = 300
PROBE_EVERY_S = 0.25
WINDOW_S = 0.75  # probes this close to an operation set its scale


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._u = (rng.random((256, 256), dtype=np.float32) - 0.5) / 16
        self._w = (rng.random((64, 256), dtype=np.float32) - 0.5) / 8
        self._x = np.ones(64, dtype=np.float32)
        self.times = []  # midpoint of each probe, ascending
        self.durations = []
        self._next = 0.0

    def _kernel(self) -> None:
        """Batch-1 GRU-shaped steps: small matrix-vector products and
        elementwise numpy, driven from a Python loop."""
        h = np.zeros(256, dtype=np.float32)
        xw = self._x @ self._w
        for _ in range(KERNEL_STEPS):
            z = 1.0 / (1.0 + np.exp(-(xw + h @ self._u)))
            h = (1.0 - z) * h + z * np.tanh(xw + h @ self._u)

    def probe(self) -> float:
        """Time the kernel once; returns the time it ended."""
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._next = t1 + PROBE_EVERY_S
        return t1

    def probe_if_due(self):
        """Probe when PROBE_EVERY_S has passed since the last probe; returns
        the time the probe ended, or None."""
        if time.perf_counter() < self._next:
            return None
        return self.probe()

    def scale(self, t: float) -> float:
        """Factor that turns a wall time measured around t into the time at
        nominal speed: NOMINAL_S over the median kernel time of the probes
        within WINDOW_S of t, or of the nearest probe on each side."""
        if not self.times:
            raise ValueError("no probe taken")
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return NOMINAL_S / statistics.median(self.durations[lo:hi])
