"""Summary statistics shared by the end-to-end and the per-layer reports."""

from __future__ import annotations

import math

# Candidate percentiles for the tail figure, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    """Median of `values`; 0.0 for no samples (a layer that never ran)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of the `pct` percentile among `n` samples."""
    return max(1, math.ceil(round(pct / 100.0 * n, 6)))  # round: 99.9 / 100 * 10000 > 9990


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it, else None."""
    for pct in TAIL_PERCENTILES:
        if n - nearest_rank(n, pct) >= MIN_BEYOND:
            return pct
    return None


def tail(values) -> tuple[float | None, float | None]:
    """(percentile, value) for the tail rule; (None, None) when no percentile qualifies."""
    xs = sorted(values)
    pct = tail_percentile(len(xs))
    if pct is None:
        return None, None
    return pct, xs[nearest_rank(len(xs), pct) - 1]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
