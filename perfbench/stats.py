"""Order statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; below that it describes a handful of outliers, not a tail.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or ``None`` when the sample is too small.

    The value at rank ``ceil(q * n)`` of the sorted sample is reported only
    when at least :data:`MIN_BEYOND` samples rank above it, so ``q = 0.9``
    needs 100 samples and ``q = 0.99`` needs 1000.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must lie strictly between 0 and 1, got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
