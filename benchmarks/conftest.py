"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables/figures, writes
the rendered table to ``benchmarks/results/<name>.txt``, prints it, and
asserts the paper's qualitative shape expectations.

Scale selection: benchmarks default to the ``small`` preset (256 nodes,
shape-preserving); set ``REPRO_SCALE=paper`` to run the paper's exact
parameters (slow: up to 3M-query cells).

Timing note: simulations are deterministic, so each benchmark is timed
as a single round (``pedantic(rounds=1)``) — the interesting output is
the table, not a latency distribution.

Execution: benchmarks go through the parallel executor and the
persistent run cache.  ``$REPRO_WORKERS`` fans independent sweep cells
across N processes; ``$REPRO_NO_CACHE`` / ``$REPRO_CACHE_DIR`` control
the on-disk cache.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session", autouse=True)
def repro_execution(request):
    """Run the benchmarks on the run cache the environment selects."""
    from repro.experiments import runcache

    saved = runcache.snapshot()
    runcache.reset()
    cache = runcache.active()  # honors $REPRO_NO_CACHE / $REPRO_CACHE_DIR
    yield
    if cache is not None:
        request.config._repro_cache_report = (
            f"repro run cache: {cache.stats} under "
            f"{cache.root}/{cache.fingerprint}"
        )
    runcache.restore(saved)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = getattr(config, "_repro_cache_report", None)
    if report:
        terminalreporter.write_line(report)


@pytest.fixture(scope="session")
def bench_scale():
    from repro.experiments.config import resolve_scale

    return resolve_scale()


@pytest.fixture()
def publish():
    """Returns a callable that records one experiment's report."""

    def _publish(name: str, result) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        report = result.report()
        (RESULTS_DIR / f"{name}.txt").write_text(report + "\n")
        print()
        print(report)
        failed = [e for e in result.check_expectations() if not e.holds]
        assert not failed, "shape expectations failed:\n" + "\n".join(
            str(e) for e in failed
        )

    return _publish
