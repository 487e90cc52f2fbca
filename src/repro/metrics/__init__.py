"""Measurement: hop accounting, miss/overhead costs, report tables.

The paper's cost model (§3.3) measures everything in overlay hops:

* **miss cost** — hops traveled by queries upstream plus hops traveled by
  first-time updates (query responses) downstream;
* **overhead** — hops traveled by maintenance updates (refresh, delete,
  append) downstream plus clear-bit messages upstream;
* **total cost** — their sum (equals miss cost for standard caching);
* **miss latency** — miss cost divided by the number of misses.

:class:`~repro.metrics.collector.MetricsCollector` gathers the raw
counters (hops via a transport send observer, protocol events via direct
increments from node logic), :class:`~repro.metrics.collector.MetricsSummary`
freezes the derived quantities, and :mod:`~repro.metrics.report` renders
the paper-style tables.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "collector": "MetricsCollector MetricsSummary",
    "report": "Table format_float format_ratio render_series",
})
