"""Order statistics shared by the benchmark driver and the comparison tool."""
from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    pct = math.floor(100.0 * (n - TAIL_BEYOND) / n)
    if pct <= 50:
        return None
    return pct, sorted(samples)[math.ceil(pct / 100.0 * n) - 1]  # nearest rank


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return med, q1, q3, 0.0 if q3 == q1 else math.inf
    return med, q1, q3, (q3 - q1) / abs(med)
