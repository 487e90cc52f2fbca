"""Perf-suite plumbing: the ``perf_publish`` printer.

The perf tests keep their behavioural asserts (golden pins per scale
cell, payload sharing, snapshot-cache reuse) and *print* their timings;
nothing is written to disk, so a test run leaves the working tree
clean.  Numbers that back a performance claim come from
``benchmarks/cupbench`` (see its README), which runs each workload in a
fresh process and reports medians with spreads.

Measurement discipline lives in :mod:`perfutil` (one untimed warmup,
best of ``PERF_ROUNDS`` timed rounds).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
if str(PERF_DIR) not in sys.path:
    sys.path.insert(0, str(PERF_DIR))


@pytest.fixture()
def perf_publish():
    """Print one named measurement (run pytest with ``-s`` to see it)."""

    def _publish(name: str, *, wall_seconds: float, ops: int,
                 unit: str = "events", **extra) -> None:
        details = "".join(f" {key}={value}" for key, value in extra.items())
        print(f"\n[perf] {name}: {ops / wall_seconds:,.0f} {unit}/sec "
              f"({ops} {unit} in {wall_seconds:.3f}s){details}")

    return _publish
