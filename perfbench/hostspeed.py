"""How fast this host runs Python right now.

On a shared machine the speed of the same pure-Python job drifts by up
to a factor of two within minutes, while the process keeps its CPU:
other tenants share the caches, memory bandwidth and clock.  The benchmark
therefore interleaves a fixed calibration workload with its jobs and
scales each measured time by the calibration speed around it, to the
time the job would take on a host where one calibration unit takes
``REFERENCE_UNIT_S``.  The workload is independent of the program under
test: a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
from time import perf_counter

REFERENCE_UNIT_S = 0.005
WINDOW_S = 0.25  # calibrations this close to either end of a measurement scale it


def _depth(n: int) -> int:
    return 0 if n == 0 else 1 + _depth(n - 1)


def calibration_unit() -> int:
    """Work of the jobs' kind: small frozensets and tuples, set unions,
    dict lookups, recursion and an indented ``json.dumps``."""
    sets = [frozenset(range(i % 13, i % 13 + 8)) for i in range(600)]
    union: set = set()
    for s in sets:
        union |= s
    index = {i: (i, str(i), s) for i, s in enumerate(sets)}
    total = sum(_depth(50) for _ in range(40))
    report = {str(k): {"a": sorted(v[2]), "b": v[1]} for k, v in index.items()}
    return len(json.dumps(report, indent=2, sort_keys=True)) + total + len(union)


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []  # when each calibration started
        self.seconds: list[float] = []

    def sample(self) -> None:
        gc.disable()  # the jobs' garbage is theirs to collect
        try:
            start = perf_counter()
            calibration_unit()
            self.seconds.append(perf_counter() - start)
            self.times.append(start)
        finally:
            gc.enable()

    def scale(self, start: float, end: float) -> float:
        """Factor from a time measured from ``start`` to ``end`` to
        reference speed, from the calibrations that bracket it."""
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.seconds[low:high] or self.seconds
        return REFERENCE_UNIT_S / statistics.median(near)
