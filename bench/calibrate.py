"""Reference kernel that measures the machine's current speed.

The benchmark's machine is shared, and its speed drifts: a fixed loop ran up
to 2x slower for stretches of tens of seconds. Every end-to-end time is
therefore measured next to this kernel and rescaled to the speed at which the
kernel takes NOMINAL_S. The kernel does the kinds of work the library does
(big-integer multiply-adds, small modular loops, small frozen dataclasses)
and never calls dringkit.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from workloads import z_mul

# Rescaled times read as times on a machine where one kernel run takes
# NOMINAL_S. On the 2-vCPU Xeon virtual machine the benchmark was tuned on,
# a run took between 0.9 and 1.5 ms, depending on the load of other tenants.
NOMINAL_S = 0.001

_A = [(i * 2654435761) % 2**41 - 2**40 for i in range(50)]
_B = [(i * 40503 + 17) % 2**41 - 2**40 for i in range(50)]


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


def kernel() -> None:
    z_mul(_A, _B)
    acc = 0
    for k in range(2000):
        acc = (acc * k + 7) % 4001
    for i in range(800):
        _Pair(i, acc)


def sample(runs: int = 1) -> int:
    """Median ns of `runs` back-to-back kernel runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter_ns()
        kernel()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)
