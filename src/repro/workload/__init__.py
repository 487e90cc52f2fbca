"""Workload generation: query arrivals, key popularity, faults, churn.

The paper's simulations (§3.2) drive the network with Poisson query
arrivals at a configurable aggregate rate, posted at uniformly random
nodes, for keys drawn from a configurable distribution; replica lifetimes
and refresh-at-expiration govern update traffic; and §3.7 injects
capacity faults on random node subsets.

* :mod:`~repro.workload.arrivals` — Poisson and deterministic arrival
  processes (self-scheduling: no event pre-materialization).
* :mod:`~repro.workload.keyspace` — uniform, Zipf and flash-crowd key
  selectors.
* :mod:`~repro.workload.generator` — the query workload driver.
* :mod:`~repro.workload.faults` — the Up-And-Down and
  Once-Down-Always-Down capacity fault schedules (§3.7).
* :mod:`~repro.workload.churn` — node arrival/departure schedules (§2.9).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "arrivals": "DeterministicArrivals PoissonArrivals",
    "churn": "ChurnSchedule",
    "faults": "CapacityFaultSchedule once_down_always_down up_and_down",
    "generator": "QueryWorkload",
    "keyspace": "FlashCrowdKeys KeySelector UniformKeys ZipfKeys",
    "tracefile": "QueryTrace",
})
