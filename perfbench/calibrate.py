"""Machine-speed calibration: scale measured times to a reference speed.

On a small shared machine the same work runs 10-20% faster or slower
from one minute to the next, and every op in a run moves together.
A fixed kernel of benchmark code -- a Python loop and a few numpy
passes, the same mix of work the annealer does -- is timed after every
op.  Its median over a run measures how fast the machine was during
that run.  Reported times are multiplied by ``REFERENCE_S / median``:
seconds on a machine where the kernel takes ``REFERENCE_S``.  The
kernel calls nothing in ``repro``, so a change to the program moves the
op times and leaves the kernel alone.

Process start moves faster still, and the kernel does not follow it.
So each CLI start is divided by a bare interpreter start timed right
after it, and the median ratio is reported in units of
``BARE_START_S``: seconds on a machine where ``python -c pass`` takes
that long.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

#: The kernel's median on a 2-vCPU Intel Xeon, over quiet and busy runs.
REFERENCE_S = 0.0225
#: ``python -c pass`` on the same machine, median over busy runs.
BARE_START_S = 0.042


def kernel_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    values = np.arange(100_000, dtype=float)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


def scale(kernels: List[float]) -> float:
    """The factor that turns this run's seconds into reference seconds."""
    return REFERENCE_S / statistics.median(kernels)


def start_s(probes: List[Tuple[float, float]]) -> float:
    """The CLI start time at the reference speed, from (CLI start, bare
    start) pairs."""
    return BARE_START_S * statistics.median(cli / bare for cli, bare in probes)
