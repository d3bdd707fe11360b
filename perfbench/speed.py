"""How fast the shared machine runs right now, from a fixed reference kernel.

On a shared 2-vCPU machine the same work can take 20-40% longer for
tens of seconds at a time while neighbours are busy. The benchmark runs
a fixed reference kernel between calls into the program and reports
times rescaled to the speed at which the kernel takes REFERENCE_MS: a
slow spell stretches the kernel and the program alike and cancels out.
The kernel is the benchmark's own code, so a change to the program
cannot move it.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

# kernel time at the reference speed: the scale of every reported time
REFERENCE_MS = 15.0
# at most one sample per interval, so sampling costs ~3% of a run
SAMPLE_INTERVAL_S = 0.5


@dataclasses.dataclass(frozen=True)
class _Record:
    key: int
    value: float


_POINTS = [(i, 1.0 + (i % 97) / 97.0, 2.0 + i % 5) for i in range(1000)]
_VECTOR = np.linspace(0.0, 1.0, 1 << 17)


def reference_work() -> float:
    """Fixed work of the kinds scpnum does: scalar float math, dict stores
    and small-object churn over 1000 entries, then a few vector ops."""
    total = 0.0
    table = {}
    records = []
    for _ in range(6):
        for i, x, c in _POINTS:
            v = math.log(x) + math.exp(-x) + x ** (1.0 / c)
            table[i] = v
            total += v
            records.append(_Record(i, v))
        records.clear()
    for _ in range(4):
        total += float(np.sum(np.expm1(-_VECTOR * total % 1.0)))
    return total


class Speedometer:
    """Reference-kernel samples taken between calls into the program."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last < SAMPLE_INTERVAL_S:
            return
        reference_work()
        self._last = time.perf_counter()
        self.samples.append(self._last - now)

    def scale(self) -> float:
        """Factor that takes a time measured among the samples to the
        reference speed."""
        return REFERENCE_MS / 1e3 / statistics.median(self.samples)
