"""Host-speed calibration of measured times.

The benchmark runs on shared virtual machines whose speed swings.  On
the 2-vCPU host it was written on, a fixed loop of small numpy calls
alternates between two speeds about 1.6x apart, in stretches of seconds
to minutes, and every timing of a run moves with it: ten 30 s runs of
one workload spread by a fifth to a quarter between their quartiles.

``kernel_seconds`` times a fixed amount of work of the kind the library
does (small numpy calls driven from Python, no library code).  A
``Calibrator`` times it between ops, every ``EVERY_S`` seconds of op time,
and rescales each op's latency by ``REFERENCE_S`` over the mean of the
two kernel times that bracket it: a latency is reported as it would read
on a host where the kernel takes ``REFERENCE_S``.  The raw latencies are
kept and printed too.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.015  # kernel time on the host above at its faster speed
EVERY_S = 0.5

_A = np.random.default_rng(0).random((16, 16))
_V = np.random.default_rng(1).random(16)


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += float(np.exp(np.log(_A + 1.0) @ _V).sum()) + 0.5 * i
    return time.perf_counter() - start


class Calibrator:
    """Kernel times taken between ops, and the chunk each op fell in."""

    def __init__(self):
        self.samples = [kernel_seconds()]
        self.chunks: list[int] = []  # per op, the index of the sample before it
        self._since = 0.0

    def record(self, latency: float) -> None:
        """Note one op's latency; time the kernel once EVERY_S has passed."""
        self.chunks.append(len(self.samples) - 1)
        self._since += latency
        if self._since >= EVERY_S:
            self.samples.append(kernel_seconds())
            self._since = 0.0

    def finish(self) -> None:
        """Time the kernel after the last op, closing the last chunk."""
        self.samples.append(kernel_seconds())
        self._since = 0.0

    def scale(self, latencies) -> list[float]:
        s = self.samples
        return [lat * REFERENCE_S * 2.0 / (s[k] + s[min(k + 1, len(s) - 1)])
                for lat, k in zip(latencies, self.chunks)]

    def speed(self) -> float:
        """Median kernel time over the reference time: >1 on a slower host."""
        return float(np.median(self.samples)) / REFERENCE_S
