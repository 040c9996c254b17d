"""The host: its fingerprint, and how fast it is running right now.

Small cloud hosts change speed from second to second: on the 2-vCPU
reference host a fixed pure-Python loop took anywhere from 2.0 ms to
4.4 ms within one minute, and the same population sweep 140-285 ms.
Timing an operation therefore spreads by that factor across runs, even
when every run takes the median of many operations.

:class:`Calibrator` times two fixed kernels that never touch the
program under test: one compute-bound (object creation, attribute reads,
dict updates, float math) and one that chases pointers through a working
set larger than the L2 cache.  Neither alone tracks the program: the
workloads slow down less than the compute kernel and more than the
memory kernel.  Their geometric mean tracks them well (per-process
medians of a sweep spread about 3% around it, against 12% raw).

The benchmark calibrates between operations and scales each operation's
time by ``REFERENCE_S / calibration``, the mean of the calibrations on
either side: a *host-normalised* time, the seconds the operation would
have taken on a host where the calibration reads :data:`REFERENCE_S`.
The program cannot move the kernels, so a slower program still reads
slower; only the host's speed cancels.  Raw times are printed next to
normalised ones.
"""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

#: Calibration on the reference host (2-vCPU Intel Xeon at 2.1 GHz) in
#: its fast periods; normalised times are seconds on such a host.
REFERENCE_S = 0.0025
#: Repeats of each kernel per calibration; the median counts.
REPEATS = 3
#: The memory kernel's working set (cells) and the cells one run visits.
MEMORY_CELLS = 100_000
MEMORY_VISITS = 5_000


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: int) -> None:
        self.x = x
        self.y = y


def _compute_kernel() -> float:
    table: Dict[Any, float] = {}
    total = 0.0
    for i in range(4000):
        point = _Point(i * 0.5, i % 7)
        key = (point.y, i & 31)
        table[key] = table.get(key, 0.0) + math.sqrt(point.x + 1.0)
        total += point.x * 0.001 - point.y
    return total + len(table)


class _MemoryKernel:
    """Visits cells of a list of small lists in a fixed shuffled order."""

    def __init__(self) -> None:
        self.cells: List[List[Any]] = [[float(i), None] for i in range(MEMORY_CELLS)]
        order = list(range(MEMORY_CELLS))
        random.Random(0).shuffle(order)
        self.order = order
        self.start = 0

    def __call__(self) -> float:
        # Each run visits the next slice of the order, so no run finds
        # its cells warm from the previous one.
        start = self.start
        self.start = (start + MEMORY_VISITS) % (MEMORY_CELLS - MEMORY_VISITS)
        cells = self.cells
        total = 0.0
        for index in self.order[start : start + MEMORY_VISITS]:
            cell = cells[index]
            total += cell[0]
            cell[1] = total
        return total


def _median_time(kernel: Any) -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Calibrator:
    """Measures the host's current speed with the two kernels."""

    def __init__(self) -> None:
        self._memory_kernel = _MemoryKernel()

    def calibration_s(self) -> float:
        """Geometric mean of the two kernels' median times now, in seconds."""
        return math.sqrt(_median_time(_compute_kernel) * _median_time(self._memory_kernel))


def scale(before: float, after: float) -> float:
    """Factor from raw to host-normalised seconds for work between two calibrations."""
    return REFERENCE_S / (0.5 * (before + after))


def fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
