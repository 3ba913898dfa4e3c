"""The machine's speed, measured beside the benchmark's timings.

On a shared machine the same pure-Python work takes up to 1.7 times longer
in some seconds than in others, as neighbours come and go; that swing is
larger than any bound a benchmark could usefully fix.  So a run times a
fixed piece of reference work every ``EVERY_S`` seconds between
operations, and each operation's time is scaled by ``REFERENCE_S`` over
the reference work's recent time: times read as they would at the speed
where the reference work takes ``REFERENCE_S``.  A change to the package
does not touch the reference work, so it shows in full in the scaled
times.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

REFERENCE_S = 0.002  # nominal time of one reference_work()
EVERY_S = 0.1  # wall time between speed samples
RECENT = 3  # speed samples an operation's scale is the median of


def reference_work() -> int:
    """Integer arithmetic and dict stores, like the package's inner loops."""
    total, table = 0, {}
    for i in range(15000):
        total += i * i % 7
        table[i % 500] = total
    return total


def reference_time() -> float:
    began = time.perf_counter()
    reference_work()
    return time.perf_counter() - began


class Pace:
    """Speed samples taken during a run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._recent: deque[float] = deque(maxlen=RECENT)
        self._last = float("-inf")

    def tick(self) -> None:
        """Sample the speed if ``EVERY_S`` has gone by since the last sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            took = reference_time()
            self.samples.append(took)
            self._recent.append(took)
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns a time measured now into one at reference speed."""
        return REFERENCE_S / statistics.median(self._recent)
