"""Order statistics used by every workload, and by ``--compare``."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

WINDOWS = 10
#: Percentiles are read per window when every window holds this many
#: samples, else from the pooled phase.  A window's p99 is then its second
#: largest sample, a noisy number; the median of ten of them is not, and
#: unlike a pooled p99 it ignores the two or three rare events (a full
#: garbage collection inside a snapshot) that a 12-second phase may or may
#: not contain.
MIN_WINDOW_SAMPLES = 100


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(samples: int) -> float:
    """p99, or the highest percentile that still has ten samples beyond
    it when there are fewer than 1,000; never below the median."""
    return max(0.5, min(0.99, 1.0 - 10.0 / samples))


def window_index(at: float, span: float) -> int:
    return min(WINDOWS - 1, int(at / span * WINDOWS))


def windowed_rate(done_at: Sequence[float], span: float) -> float:
    """Completions per second: the median over ten equal windows.

    ``done_at`` are completion times measured from the phase's start and
    ``span`` is the phase's length, so one burst from a co-tenant moves one
    window and not the reported rate.
    """
    counts = [0] * WINDOWS
    for at in done_at:
        counts[window_index(at, span)] += 1
    return statistics.median(counts) / (span / WINDOWS)


def windowed_latency(
    samples: Sequence[Tuple[float, float]], span: float
) -> Tuple[float, float, float]:
    """``(p50, tail, q)`` of ``(at, latency)`` samples over a phase.

    With enough samples each is the median over ten equal windows of that
    window's percentile (p99 for the tail), so one burst from a co-tenant
    moves one window; with fewer they are percentiles of the pooled
    samples, the tail at :func:`tail_quantile`.
    """
    windows: List[List[float]] = [[] for _ in range(WINDOWS)]
    for at, latency in samples:
        windows[window_index(at, span)].append(latency)
    if min(len(w) for w in windows) >= MIN_WINDOW_SAMPLES:
        q = 0.99
        return (
            statistics.median(percentile(w, 0.5) for w in windows),
            statistics.median(percentile(w, q) for w in windows),
            q,
        )
    pooled = [latency for _, latency in samples]
    q = tail_quantile(len(pooled))
    return percentile(pooled, 0.5), percentile(pooled, q), q


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (the driver's measure of how steady a metric is)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
