"""A fixed reference computation that tracks the host's speed.

The benchmark's host shares its cores with other tenants: the same op runs
up to 1.6 times slower for tens of seconds at a time, and the mix drifts
over tens of minutes, so raw op times of runs made minutes apart differ by
more than any change worth detecting.  The reference below is timed right
before and after every op; an op's time is reported at the reference speed,
scaled by ``NOMINAL_S`` over the mean of its two neighbouring reference
times.  The reference is the benchmark's own code and never changes, so a
change to the program still moves the scaled times by its full effect,
while the host's drift cancels.

The routine mixes the two kinds of work the package's ops are made of: an
interpreted loop and short numpy calls (bincount, cumsum, searchsorted) on
arrays of a few thousand elements.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Typical time of one reference call on the host the benchmark was built
# on; it only sets the scale of the reported times.
NOMINAL_S = 0.0125


class HostReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = np.sort(rng.random(3000))
        self._index = rng.integers(0, 3000, 3000)
        self._grid = np.linspace(0.0, 1.0, 1001)

    def _work(self) -> None:
        total = 0
        for i in range(60000):
            total += i * i
        for _ in range(60):
            mass = np.cumsum(np.bincount(self._index, minlength=3000)) / 3000.0
            slots = np.searchsorted(self._grid, mass)
            np.cumsum(np.bincount(slots, weights=self._values, minlength=1002))

    def time(self) -> float:
        """Median wall time of three reference calls, in seconds: one call
        cut by a preemption does not move it."""
        times = []
        for _ in range(3):
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        return sorted(times)[1]
