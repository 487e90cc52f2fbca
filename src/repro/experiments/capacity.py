"""Figures 5 and 6: total cost versus reduced outgoing capacity (§3.7).

After a warm-up, twenty percent of nodes have their outgoing update
capacity reduced to a fraction ``c`` — either repeatedly for ten-minute
episodes with recovery in between (*Up-And-Down*) or permanently
(*Once-Down-Always-Down*).  A node at capacity ``c`` pushes only that
fraction of the maintenance updates it would have forwarded; its subtree
degrades toward standard caching.

Shape claims checked:

* miss cost rises as capacity drops (degradation) in both configurations;
* the degradation is graceful — no cliff at c = 0, because suppressed
  propagation also saves its own overhead;
* Once-Down-Always-Down suffers at least as many misses as Up-And-Down
  (recovery periods heal the subscription trees).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.protocol import CupConfig
from repro.experiments.base import ExperimentResult, monotone_nonincreasing
from repro.experiments.config import Scale, resolve_scale
from repro.experiments.executor import (
    FAULT_CONFIGURATIONS,
    Cell,
    FaultSpec,
    execute,
)
from repro.metrics.collector import MetricsSummary
from repro.metrics.report import Table

CONFIGURATIONS = FAULT_CONFIGURATIONS


def run_with_faults(
    config: CupConfig,
    configuration: str,
    reduced: float,
    fraction: float = 0.2,
    warmup: float = 300.0,
    down_for: float = 600.0,
    stable_for: float = 300.0,
) -> MetricsSummary:
    """One CUP run with a §3.7 capacity fault schedule attached.

    Thin wrapper over the executor's declarative fault cells; results
    share the run caches with the sweep harnesses.
    """
    spec = FaultSpec(
        configuration=configuration,
        reduced=reduced,
        fraction=fraction,
        warmup=warmup,
        down_for=down_for,
        stable_for=stable_for,
    )
    return execute([Cell("faulted", config, spec)])["faulted"]


class CapacityResult(ExperimentResult):
    """Total/miss cost per (configuration, reduced capacity)."""

    def __init__(self, capacities: List[float]):
        super().__init__()
        self.capacities = capacities
        #: configuration -> {"total": [...], "miss": [...]}
        self.series: Dict[str, Dict[str, List[int]]] = {}
        self.std_total = 0
        self.full_capacity_total = 0

    def format_table(self) -> str:
        headers = ["capacity c"]
        for name in self.series:
            headers += [f"{name} total", f"{name} miss"]
        table = Table(self.title, headers)
        for i, c in enumerate(self.capacities):
            cells: List[object] = [f"{c:.2f}"]
            for name in self.series:
                cells.append(self.series[name]["total"][i])
                cells.append(self.series[name]["miss"][i])
            table.add_row(*cells)
        return (
            table.render()
            + f"\nStandard caching total cost: {self.std_total}"
            + f"\nCUP at full capacity:        {self.full_capacity_total}"
        )


def run_capacity(
    scale: Optional[Scale] = None,
    paper_rate: float = 1.0,
    capacities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    fraction: float = 0.2,
    seed: int = 42,
    log_scale_figure: bool = False,
) -> CapacityResult:
    """Reproduce Figure 5 (λ=1) or Figure 6 (λ=1000, log y-axis)."""
    scale = scale or resolve_scale()
    base = scale.config(seed=seed, query_rate=scale.rate(paper_rate))
    # Fault episode lengths scale with the preset's time axis.
    time_factor = scale.query_duration / 3000.0
    capacities = sorted(capacities)
    result = CapacityResult(list(capacities))
    figure = "Figure 6" if log_scale_figure else "Figure 5"
    result.title = (
        f"{figure}: total cost vs reduced capacity "
        f"(n={base.num_nodes}, paper-λ={paper_rate:g}, "
        f"{fraction:.0%} of nodes, scale={scale.name})"
    )

    cells = [
        Cell("std", base.variant(mode="standard")),
        Cell("full", base),
    ]
    for name in CONFIGURATIONS:
        cells.extend(
            Cell(
                (name, c),
                base,
                FaultSpec(
                    configuration=name,
                    reduced=c,
                    fraction=fraction,
                    warmup=300.0 * time_factor,
                    down_for=600.0 * time_factor,
                    stable_for=300.0 * time_factor,
                ),
            )
            for c in capacities
        )
    summaries = execute(cells)
    result.std_total = summaries["std"].total_cost
    result.full_capacity_total = summaries["full"].total_cost

    for name in CONFIGURATIONS:
        totals: List[int] = []
        misses: List[int] = []
        for c in capacities:
            summary = summaries[(name, c)]
            totals.append(summary.total_cost)
            misses.append(summary.miss_cost)
        result.series[name] = {"total": totals, "miss": misses}

        result.expect(
            f"{name}: miss cost falls as capacity recovers",
            monotone_nonincreasing_rev(misses),
        )
        result.expect(
            f"{name}: graceful degradation — cost at c=0 within 2.5x of "
            f"full capacity",
            totals[0] <= 2.5 * max(totals[-1], 1),
        )

    updown = result.series["up-and-down"]["miss"]
    oncedown = result.series["once-down-always-down"]["miss"]
    result.expect(
        "once-down-always-down suffers at least as many miss hops as "
        "up-and-down at reduced capacity (recovery heals the trees; "
        "25% tolerance for victim-set luck at small networks)",
        sum(oncedown[:-1]) >= sum(updown[:-1]) * 0.75,
    )
    return result


def monotone_nonincreasing_rev(values: List[int]) -> bool:
    """Values indexed by ascending capacity should trend downward."""
    return monotone_nonincreasing([float(v) for v in values], slack=0.10)
