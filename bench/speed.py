"""CPU speed probe for scaling the benchmark's timings.

The shared machines this benchmark runs on change speed by up to 2x within
seconds, because other tenants load the same cores. A fixed pure-Python
reference workload, timed just before and just after each timing, shows
how fast the CPU ran meanwhile; scaling the timing by REFERENCE_NOMINAL_S
over that reference time gives the time the program would have taken at
the reference speed. The raw timings are kept in every result file.
"""

from __future__ import annotations

import time

# best-of-3 time of the reference work on the machine that defined the
# benchmark (2 vCPUs of an Intel Xeon, Python 3.11); it only sets the scale,
# and stays fixed so that scaled times compare across commits
REFERENCE_NOMINAL_S = 0.012
PROBE_EVERY_S = 0.25  # at most this long between two probe points


def _reference_work():
    """Tuple-keyed dict updates and lookups, like the package's inner loops."""
    s, d = 0, {}
    for i in range(30000):
        d[(i & 1023, i & 7)] = i
        s += d.get(((i * 7) & 1023, i & 7), 0)
    return s


class SpeedProbe:
    def __init__(self):
        self.points = []  # reference seconds, in the order taken
        self._last = float("-inf")

    def take(self):
        """Time the reference work now (best of three); returns the point's index."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - t0)
        self.points.append(best)
        self._last = time.perf_counter()
        return len(self.points) - 1

    def due(self):
        """Index of the latest point, taking a new one first when the last is
        older than PROBE_EVERY_S."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            return self.take()
        return len(self.points) - 1

    def factor(self, i):
        """Scale for a timing made between point i and point i + 1."""
        return REFERENCE_NOMINAL_S / ((self.points[i] + self.points[i + 1]) / 2)
