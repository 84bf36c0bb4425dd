"""The machine's current speed, sampled with a fixed pure-Python kernel.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes: an identical ``damped`` unit took 3.8-5.9 s within a few
minutes on a 2-vCPU machine.  A time divided by the kernel's time measured
in the same interpreter around it stays comparable across runs, so the
gated metrics are such ratios (unit ``ref``: multiples of one kernel run).
``setup_s``, whose name and unit are fixed, is the ratio times
``NOMINAL_S``: seconds on a machine where the kernel takes 5 ms.  The raw
seconds are reported next to them.
"""

from __future__ import annotations

import math
import time

clock = time.perf_counter

#: Kernel runs per sample (their median is the sample), and the workload
#: time between samples.
REPEATS = 5
EVERY_S = 1.0
#: Kernel time of the nominal machine that ``setup_s`` is scaled to.
NOMINAL_S = 0.005


def kernel() -> float:
    """Float arithmetic and ``math`` calls in an interpreted loop, as in weakamp's hot paths."""
    acc = 0.0
    for i in range(20000):
        x = i * 1e-4
        acc += math.cos(x) * math.sin(0.5 * x) / (1.0 + x * x)
    return acc


class Speed:
    """Kernel times sampled when created and about every ``every_s`` seconds of workload.

    ``paused`` is the time spent sampling, which callers subtract from the
    wall time they measured around it.
    """

    def __init__(self, every_s: float = EVERY_S):
        self.every_s = every_s
        self.refs: list[float] = []
        self.paused = 0.0
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        start = clock()
        times = []
        for _ in range(REPEATS):
            t0 = clock()
            kernel()
            times.append(clock() - t0)
        times.sort()
        self.refs.append(times[len(times) // 2])
        self._last = clock()
        self.paused += self._last - start

    def poll(self) -> None:
        if clock() - self._last >= self.every_s:
            self.sample()

    def around(self, index: int) -> float:
        """Mean of sample ``index`` and the one after it."""
        return 0.5 * (self.refs[index] + self.refs[min(index + 1, len(self.refs) - 1)])

    def mean(self) -> float:
        return sum(self.refs) / len(self.refs)
