"""A clock in reference-speed seconds, for a host whose CPU speed drifts.

On the 2-vCPU host this benchmark was written on, a fixed pure-Python loop
runs up to 1.7x slower for stretches of seconds to minutes, with CPU time
tracking wall time, so the slowdown comes from outside the process. Medians
of plain wall time then spread by 15-30% between runs.

HostClock runs a fixed calibration loop from a SIGALRM handler every
`interval` seconds while a measurement is open. Each stretch of work between
two samples is divided by the duration of the calibration loop run right
after it and multiplied by REFERENCE_S, the loop's duration at the reference
speed. The sum is the work's duration in reference-speed seconds. Time spent
in the handler is excluded from both these and the plain wall-clock figures.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Duration of calibration_loop() in this host's fast phase (Intel Xeon, Python
# 3.11, numpy 2.4). Only ratios between runs matter; this sets the scale.
REFERENCE_S = 0.0006

_TABLE = {(i, j, i ^ j): float(i * j) for i in range(64) for j in range(64)}
_ARRAY = np.linspace(0.0, 1.0, 64)
_LEVELS = np.linspace(0.1, 0.9, 1025)


def calibration_loop() -> float:
    """A fixed mix of skewdrift's two kinds of hot code.

    Tuple-keyed dict lookups and float adds, as in step-graph images and
    classification, then a vectorised bisection over 1025 values, as in
    `fibers.invert` and `products.distance`. The mix tracked the slowdowns
    of both the dict-heavy sweep and the numpy-heavy ladder; either part
    alone tracked one of them worse.
    """
    total = 0.0
    for _ in range(2):
        for i in range(64):
            for j in range(0, 64, 4):
                total += _TABLE[(i, j, i ^ j)]
        total += float((_ARRAY * _ARRAY + 0.5).sum())
    lo = np.zeros_like(_LEVELS)
    hi = np.ones_like(_LEVELS)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        below = 0.1 + 0.8 * mid < _LEVELS
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return total + float(lo[0])


class HostClock:
    """Accumulates reference-speed seconds between start() and stop()."""

    def __init__(self, interval: float):
        self.interval = interval
        self.busy = 0.0  # seconds spent running the calibration loop
        self.norm = 0.0  # reference-speed seconds of work up to the last sample
        self._last_end: float | None = None
        self._sampling = False

    def sample(self, *_):
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        if self._last_end is not None:
            self.norm += (start - self._last_end) * REFERENCE_S / (end - start)
        self._last_end = end
        self.busy += end - start
        self._sampling = False

    def start(self):
        self._last_end = None
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self._last_end = None

    def raw(self) -> float:
        """perf_counter seconds with the calibration time taken out."""
        return time.perf_counter() - self.busy

    def mark(self) -> tuple[float, float]:
        """(reference-speed seconds, raw seconds) so far; while started, samples first."""
        if self._last_end is not None:
            self.sample()
        return self.norm, self.raw()
