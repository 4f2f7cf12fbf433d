"""Host-speed sampling, to express timings at a fixed reference host speed.

The benchmark runs on shared cores whose speed swings by up to 2x within
seconds (see README.md).  While a timed batch runs, `Sampler` interrupts it
every SAMPLE_INTERVAL_S with SIGALRM and times `kernel()`, a fixed mix of
Python arithmetic, small numpy operations and float formatting that calls
no jctrap code.  A sample is the fastest of three back-to-back kernel
runs, so that it measures the host and not how cold the workload left the
caches.  A timing `t` taken while the kernel averaged `k` seconds is
reported as `t * REFERENCE_KERNEL_S / k`: the time the same work would take
on a host where the kernel takes REFERENCE_KERNEL_S.  A change to jctrap
moves `t` but not `k`; a change in host speed moves both.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Kernel time on the 2-vCPU Xeon guest the benchmark was defined on, in its
# fast state.
REFERENCE_KERNEL_S = 110e-6

SAMPLE_INTERVAL_S = 0.1

_ARRAY = np.linspace(0.0, 1.0, 64)


def kernel() -> str:
    x = 0.5
    for _ in range(300):
        x = x + 0.3 * math.sin(x * 1.0001) ** 2
    a = _ARRAY
    for _ in range(40):
        a = np.cos(a) * 0.5 + 0.25
    return format(float(a.sum()), ".17g") + format(x, ".17g")


def kernel_sample() -> float:
    """Fastest of three back-to-back kernel runs, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def kernel_time(samples: int = 9) -> float:
    """Median of back-to-back kernel samples."""
    return statistics.median(kernel_sample() for _ in range(samples))


class Sampler:
    """Times the kernel every SAMPLE_INTERVAL_S of wall time while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel_sample())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self) -> float:
        """Mean kernel time over the samples; a fresh measurement if there are none."""
        return statistics.fmean(self.samples) if self.samples else kernel_time()
