"""Machine-speed probe, for times that compare across runs on a shared host.

On a shared machine the same single-threaded Python code can run at two or
more speeds, switching every few seconds and staying in the slow state for
tens of seconds at times.  A run-to-run spread of that size would hide any
regression smaller than it, so the benchmark also measures the speed of the
machine while each query runs and reports its times scaled to a reference
speed.

`SpeedProbe` is a background thread that wakes every `PERIOD_S`, runs a fixed
pure-Python loop and records the loop's CPU time (thread time, so waiting for
the interpreter lock does not count).  `scale(a, b)` is the mean probe time
around the interval [a, b] divided by `REFERENCE_S`: a query's scaled time
t / scale(a, b) is the time it would have taken with the loop running at the
reference speed.  The probe costs about 1% of the process's time, the same on
every run, and none of its code lives in the package under test.
"""

from __future__ import annotations

import bisect
import math
import threading
import time

PERIOD_S = 0.05
LOOP_ITERATIONS = 2000
REFERENCE_S = 0.0005  # about the loop's CPU time on a quiet 2-core x86-64 VM
WINDOW_S = 0.1
MIN_SAMPLES = 3


def _step(i: int, acc: int) -> int:
    return acc + (i * i) % 7 + math.gcd(i, 360)


def probe_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """Integer arithmetic, calls, dict and tuple traffic: the operations the
    package's pure-Python paths are made of."""
    acc = 0
    table = {}
    items = []
    for i in range(1, iterations):
        acc = _step(i, acc)
        table[i & 63] = acc
        if i & 7 == 0:
            items.append((i, acc))
    return acc + len(tuple(items))


class SpeedProbe(threading.Thread):
    """Samples the loop's CPU time every PERIOD_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.times: list[float] = []
        self.costs: list[float] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(PERIOD_S):
            c0 = time.thread_time()
            probe_loop()
            cost = time.thread_time() - c0
            self.times.append(time.perf_counter())
            self.costs.append(cost)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def scale(self, a: float, b: float) -> float:
        """Mean loop time over [a - WINDOW_S, b + WINDOW_S] (at least
        MIN_SAMPLES nearest samples) relative to REFERENCE_S."""
        times = self.times[:]
        costs = self.costs[: len(times)]
        if not times:
            return 1.0
        lo = bisect.bisect_left(times, a - WINDOW_S)
        hi = bisect.bisect_right(times, b + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(times)):
            if lo > 0 and (hi >= len(times) or a - times[lo - 1] <= times[hi] - b):
                lo -= 1
            else:
                hi += 1
        window = costs[lo:hi]
        return sum(window) / len(window) / REFERENCE_S
