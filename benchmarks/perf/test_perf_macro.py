"""Macro benchmark: wall-time of one standard sweep cell.

The cell is the heaviest point of the Table 2 (`run_network_size`)
sweep at the default ``small`` preset: n = 1024 nodes at the §3.5
high-rate operating point (paper-λ = 100) — the cell cupbench's
``sim_query_heavy`` workload measures with medians and spreads; here
its events/sec is printed.

The run bypasses every cache layer (a cache hit would measure JSON
parsing, not the simulator) and asserts the golden metric numbers so a
"fast but wrong" regression cannot slip through the perf suite.
"""

import time

from perfutil import PERF_ROUNDS

from repro.core.protocol import CupNetwork
from repro.experiments.config import SMALL


def _macro_config():
    return SMALL.config(seed=42, num_nodes=1024, query_rate=SMALL.rate(100.0))


def test_macro_network_size_cell(perf_publish):
    # Warmup round, then best-of timed rounds (fresh network each time;
    # the simulation itself is deterministic).
    CupNetwork(_macro_config()).run()
    best = None
    for _ in range(PERF_ROUNDS):
        net = CupNetwork(_macro_config())
        t0 = time.perf_counter()
        summary = net.run()
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, net.sim.events_processed, summary)
    wall, events, summary = best

    # Correctness guard: byte-identical metrics per run (the referee for
    # every hot-path change; drift here means the optimization changed
    # simulation behaviour, not just its speed).
    assert summary.queries_posted == 74716
    assert summary.total_cost == 15358

    perf_publish(
        "macro_network_size_cell",
        wall_seconds=wall,
        ops=events,
        unit="events",
        cell="run_network_size n=1024 paper-rate=100 scale=small",
        queries_posted=summary.queries_posted,
        total_cost=summary.total_cost,
    )
