"""Macro benchmark: the `run_network_size` cell at production scale.

The overlay fast path exists so the reproduction can run the paper's
network-size axis far beyond the original 2^12 = 4096 nodes.  This suite
times the standard cell (the `small` preset at the §3.5 high-rate
operating point, paper-λ = 100 — identical to ``test_perf_macro``'s
n=1024 cell except for ``num_nodes``) at n = 4096, 16384 and 65536,
printing two numbers per cell:

* steady-state **events/sec** of the run phase;
* **setup seconds** (network construction, including overlay build —
  reported separately so routing-table precomputation cannot hide
  inside, or be mistaken for, steady-state throughput).

Memory is cupbench's ``peak_rss_mb`` on the same cells.

Each cell is timed as a single shot — the simulation is deterministic
and runs for seconds, so machine noise is amortized by run length and
the warmup/best-of protocol of the micro benchmarks would triple a
multi-minute suite for no added signal.  The golden metric pins make the
cells referee their own correctness: a "fast but wrong" routing change
fails here before it can print a throughput number.  The timings are
information, not a gate; ``benchmarks/cupbench`` measures the same cells
(``sim_query_heavy`` at n=1024, ``sim_hop_heavy`` at n=16384) with
medians and spreads for anything that needs to be claimed.

Set ``REPRO_PERF_SCALE_MAX`` (e.g. ``16384``) to cap the sweep on
constrained machines; every cell at or below the cap still runs.
"""

import os
import time

from repro.core.protocol import CupNetwork
from repro.experiments.config import SMALL

#: (num_nodes, golden queries_posted, golden total_cost) per cell.  The
#: workload stream is identical across n (same seed, same arrival
#: process), so queries_posted stays fixed while routing cost grows with
#: the network diameter.
SCALE_CELLS = (
    (4096, 74716, 60796),
    (16384, 74716, 239336),
    (65536, 74716, 932797),
)


def _scale_cap() -> int:
    return int(os.environ.get("REPRO_PERF_SCALE_MAX", "65536"))


def _cell_config(num_nodes: int):
    return SMALL.config(
        seed=42, num_nodes=num_nodes, query_rate=SMALL.rate(100.0)
    )


def test_scale_network_size_cells(perf_publish):
    cap = _scale_cap()
    ran = 0
    for num_nodes, golden_queries, golden_cost in SCALE_CELLS:
        if num_nodes > cap:
            continue
        config = _cell_config(num_nodes)

        setup_started = time.perf_counter()
        net = CupNetwork(config)
        setup_seconds = time.perf_counter() - setup_started

        run_started = time.perf_counter()
        summary = net.run()
        run_seconds = time.perf_counter() - run_started
        events = net.sim.events_processed

        # Correctness referee: byte-identical metrics per cell.
        assert summary.queries_posted == golden_queries, num_nodes
        assert summary.total_cost == golden_cost, num_nodes

        perf_publish(
            f"scale_network_size_n{num_nodes}",
            wall_seconds=run_seconds,
            ops=events,
            unit="events",
            cell=f"run_network_size n={num_nodes} paper-rate=100 scale=small",
            setup_seconds=round(setup_seconds, 6),
            routing_build_seconds=round(
                net.metrics.routing_build_seconds, 6
            ),
            routing_table_builds=net.metrics.routing_table_builds,
            queries_posted=summary.queries_posted,
            total_cost=summary.total_cost,
        )
        ran += 1
    assert ran >= 1, "REPRO_PERF_SCALE_MAX excluded every scale cell"
