"""Machine-speed reference for timing on a shared, noisy host.

On a shared 2-vCPU host (2.1 GHz, Python 3.11) the speed of exact-rational
Python code swings by up to 1.7x within tens of seconds: 10-second medians
of the probe below ranged from 6.8 to 12.2 ms, and program decisions slowed
in step with it. So every timed interval is paired with probe runs taken
just before and after it and reported at reference speed,

    wall seconds x NOMINAL_S / (median time of the nearby probe runs).

The probe is a fixed exact computation from the benchmark's own model (the
series rank of a fixed 7-state PA). It never runs program code, so a change
to the program cannot move it; raw wall times stay in the result records.
"""

from __future__ import annotations

import random
import statistics
import time

from generators import ring_pa
from model import series_rank

NOMINAL_S = 0.007   # probe time in a quiet phase of the host above
WINDOW = 3          # probes on each side of an interval used for its scale


class SpeedProbe:
    def __init__(self):
        rng = random.Random("speed-probe")
        self.auto = ring_pa(rng, rng, 7)
        self.times: list[float] = []

    def probe(self) -> int:
        """Time one probe run; return its index, which marks the interval after it."""
        start = time.perf_counter()
        series_rank(self.auto)
        self.times.append(time.perf_counter() - start)
        return len(self.times) - 1

    def scale(self, index: int) -> float:
        """Factor from wall time to reference time for the interval after probe ``index``."""
        nearby = self.times[max(0, index - WINDOW + 1): index + WINDOW + 1]
        return NOMINAL_S / statistics.median(nearby)
