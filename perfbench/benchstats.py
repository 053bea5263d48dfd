"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it in one run.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return math.floor(count * (100.0 - q) / 100.0 + 1e-9)


def highest_tail(values: Sequence[float],
                 candidates: Sequence[float] = (99.0, 95.0, 90.0)):
    """``(q, value)`` of the highest candidate percentile with at least
    MIN_BEYOND samples beyond it; None (refused) when even the lowest
    candidate has fewer."""
    for q in candidates:
        if samples_beyond(len(values), q) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None
