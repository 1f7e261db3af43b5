"""Order statistics and CPU-speed normalization for the harness.

On a shared virtual machine the same code runs up to twice as slowly for
seconds at a time, in CPU time as well as wall time, because the host
slows the virtual CPU.  A fixed pure-Python calibration job slows down
by the same factor, so the harness runs it every
:data:`CALIBRATION_INTERVAL` seconds and scales each timing by
``REFERENCE_SECONDS / (local calibration time)``: every reported time
is what the machine would have measured had the calibration job taken
exactly :data:`REFERENCE_SECONDS`.  A change to the library cannot move
the calibration job, so ratios between commits survive the scaling.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import List, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p95 needs 200 samples and p99 needs 1000.
MIN_TAIL = 10
#: The calibration job's duration at the reference speed.
REFERENCE_SECONDS = 0.003
#: Seconds between calibration samples, and the half-width of the window
#: whose median calibration time scales a timing.
CALIBRATION_INTERVAL = 0.1
CALIBRATION_WINDOW = 0.25


def percentile(samples: Sequence[float], q: int) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` when fewer than :data:`MIN_TAIL` samples
    lie beyond the percentile: a tail estimated from a handful of
    samples is noise, not a latency figure.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    n = len(samples)
    rank = -(-q * n // 100)  # ceil(q * n / 100) in exact integer arithmetic
    if n - rank < MIN_TAIL:
        needed = math.ceil(MIN_TAIL * 100 / (100 - q))
        raise ValueError(f"p{q} needs at least {needed} samples, got {n}")
    return sorted(samples)[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """The interquartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def calibration_job() -> int:
    """Fixed interpreter work shaped like the library's: tuples, string
    formatting, hashing, a frozenset, dict grouping and a sort."""
    rows = [(f"k{i}", i % 97, ("x", i)) for i in range(3000)]
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[1], []).append(row)
    ordered = sorted(frozenset(rows), key=lambda row: (row[1], row[0]))
    return len(ordered) + len(groups)


class Speedometer:
    """Calibration samples over a run and the scale factor they imply."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_job()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def maybe_sample(self) -> None:
        """Sample when the last sample is older than the interval."""
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATION_INTERVAL:
            self.sample()

    def factor(self, at: float) -> float:
        """The scale for a timing taken at ``at``: reference over the median
        calibration time within the window (the nearest sample if none)."""
        low = bisect.bisect_left(self.times, at - CALIBRATION_WINDOW)
        high = bisect.bisect_right(self.times, at + CALIBRATION_WINDOW)
        near = self.seconds[low:high]
        if not near:
            index = min(range(len(self.times)), key=lambda i: abs(self.times[i] - at))
            near = [self.seconds[index]]
        return REFERENCE_SECONDS / statistics.median(near)

    def overall(self) -> float:
        """The scale for totals over the whole run."""
        return REFERENCE_SECONDS / statistics.median(self.seconds)
