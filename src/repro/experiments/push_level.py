"""Figures 3 and 4: total and miss cost versus push level (§3.3).

CUP propagates every update down the real query tree, but only to nodes
within ``p`` hops of the authority.  A push level of 0 is standard
caching (updates squelched at the root); deeper levels trade update
overhead for miss savings.  The paper's findings, which we check:

* miss cost decreases monotonically with push level;
* p = 0 costs the same as standard caching;
* the total-cost curve has a turning point (interior minimum) at low
  query rates, and tapers flat at high rates — there is *no single
  optimal push level* across workloads, which motivates the per-node
  cut-off policies of §3.4.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.policies import AllOutPolicy
from repro.experiments.base import ExperimentResult, monotone_nonincreasing
from repro.experiments.config import Scale, resolve_scale
from repro.experiments.executor import Cell, execute
from repro.metrics.report import Table


class PushLevelResult(ExperimentResult):
    """Series of (level -> total, miss) per query rate."""

    def __init__(self, scale: Scale, levels: List[int]):
        super().__init__()
        self.scale = scale
        self.levels = levels
        #: paper-λ -> {"total": [...], "miss": [...], "std_total": int}
        self.series: Dict[float, Dict[str, object]] = {}

    def add_rate(self, paper_rate: float, totals: List[int],
                 misses: List[int], std_total: int) -> None:
        self.series[paper_rate] = {
            "total": totals, "miss": misses, "std_total": std_total,
        }

    def optimal_level(self, paper_rate: float) -> int:
        totals = self.series[paper_rate]["total"]
        best = min(range(len(totals)), key=lambda i: totals[i])
        return self.levels[best]

    def optimal_total(self, paper_rate: float) -> int:
        return min(self.series[paper_rate]["total"])

    def format_table(self) -> str:
        headers = ["push level"]
        for rate in self.series:
            headers += [f"total λ={rate:g}", f"miss λ={rate:g}"]
        table = Table(self.title, headers)
        for i, level in enumerate(self.levels):
            cells: List[object] = [level]
            for rate in self.series:
                cells.append(self.series[rate]["total"][i])
                cells.append(self.series[rate]["miss"][i])
            table.add_row(*cells)
        std_cells: List[object] = ["std caching"]
        for rate in self.series:
            std_cells += [self.series[rate]["std_total"], ""]
        table.add_row(*std_cells)
        return table.render()


def default_levels(num_nodes: int) -> List[int]:
    """A level sweep reaching the grid diameter (every node)."""
    cols = 1 << ((num_nodes.bit_length()) // 2)
    rows = max(1, num_nodes // cols)
    diameter = cols // 2 + rows // 2
    levels = [0, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 25, 30]
    return sorted({p for p in levels if p < diameter} | {diameter})


def run_push_level(
    scale: Optional[Scale] = None,
    paper_rates: Sequence[float] = (1.0, 10.0),
    levels: Optional[List[int]] = None,
    seed: int = 42,
    log_scale_figure: bool = False,
) -> PushLevelResult:
    """Reproduce Figure 3 (default rates) or Figure 4 (rates 100, 1000).

    Returns a :class:`PushLevelResult`; ``log_scale_figure`` only changes
    the title (the paper plots Figure 4 with a log y-axis).
    """
    scale = scale or resolve_scale()
    base = scale.config(seed=seed)
    levels = levels if levels is not None else default_levels(base.num_nodes)
    result = PushLevelResult(scale, levels)
    figure = "Figure 4" if log_scale_figure else "Figure 3"
    result.title = (
        f"{figure}: total/miss cost vs push level "
        f"(n={base.num_nodes}, scale={scale.name})"
    )

    active_rates = [r for r in paper_rates if r <= scale.max_rate]
    cells = []
    for paper_rate in active_rates:
        rate = scale.rate(paper_rate)
        cells.append(Cell(
            ("std", paper_rate),
            base.variant(mode="standard", query_rate=rate),
        ))
        cells.extend(
            Cell(
                (paper_rate, level),
                base.variant(
                    policy=AllOutPolicy(push_level=level), query_rate=rate
                ),
            )
            for level in levels
        )
    summaries = execute(cells)

    for paper_rate in active_rates:
        std = summaries[("std", paper_rate)]
        totals: List[int] = []
        misses: List[int] = []
        for level in levels:
            summary = summaries[(paper_rate, level)]
            totals.append(summary.total_cost)
            misses.append(summary.miss_cost)
        result.add_rate(paper_rate, totals, misses, std.total_cost)

        result.expect(
            f"λ={paper_rate:g}: miss cost decreases monotonically with "
            f"push level",
            monotone_nonincreasing([float(m) for m in misses]),
        )
        result.expect(
            f"λ={paper_rate:g}: push level 0 degrades to standard caching "
            f"(never worse than std+15%; cheaper is coalescing's gain)",
            totals[0] <= 1.15 * std.total_cost,
        )
        result.expect(
            f"λ={paper_rate:g}: best push level beats standard caching",
            min(totals) < std.total_cost,
        )
        result.expect(
            f"λ={paper_rate:g}: deep push beats shallow push on miss cost",
            misses[-1] < misses[0],
        )
    return result
