"""Summary statistics for benchmark samples (stdlib only).

The tail-percentile rule follows the usual latency-report idiom: a
percentile is only worth quoting when enough samples lie beyond it, so
:func:`tail_percentile` picks the highest rung of a fixed ladder that
still has at least ``min_beyond`` samples above it and reports how many
samples it rests on.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Percentile rungs :func:`tail_percentile` chooses from, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must lie in [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the ``pct`` rank."""
    return count - math.ceil(count * pct / 100.0 - 1e-9)


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10
) -> tuple[float, float, int] | None:
    """``(pct, value, count)`` for the highest well-supported percentile.

    Walks :data:`PERCENTILE_LADDER` from the top and returns the first
    rung with at least ``min_beyond`` samples beyond it, together with
    its value and the sample count; ``None`` when even the median lacks
    that support.
    """
    count = len(values)
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= min_beyond:
            return pct, percentile(values, pct), count
    return None
