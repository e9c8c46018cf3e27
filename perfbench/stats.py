"""Order statistics used in the benchmark's reports.

Percentiles use the nearest-rank rule, so a reported percentile is always one
of the measured samples.  A tail percentile is reported only when at least
MIN_BEYOND samples lie above it; fewer would make it one or two outliers.
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def _rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile (integer q in 1..100) of n samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < q <= 100:
        raise ValueError("percentile must lie in 1..100")
    return max(1, -(-q * n // 100))


def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile of values."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: int) -> int:
    """Number of samples strictly above the q-th percentile's rank among n."""
    return n - _rank(n, q)


def reportable(n: int, q: int) -> bool:
    """True when the q-th percentile of n samples has MIN_BEYOND samples above it."""
    return beyond(n, q) >= MIN_BEYOND


def spread(values) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
