"""What every workload returns, and the paths and host readings they share."""

from __future__ import annotations

import os
import resource
import time
from typing import List, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: The root of the checkout, and the system under test inside it.
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


class GateError(Exception):
    """The workload's outputs are wrong; no number may be printed."""


class Result(NamedTuple):
    attempted: int
    failed: int
    metrics: dict
    #: Lines for the reader: roles chosen, sample counts, percentiles used.
    notes: List[str]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 for a layer that was never entered."""
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_ns_per_iter() -> float:
    """A fixed pure-python loop: how fast this host runs bytecode today.

    Recorded beside the per-layer numbers so a reader can tell a slow host
    from slow code; never used to rescale anything.
    """
    iterations = 500_000
    best = None
    for _ in range(3):
        started = time.perf_counter_ns()
        total = 0
        for i in range(iterations):
            total += i & 7
        elapsed = time.perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / iterations
