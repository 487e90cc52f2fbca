"""The §3.1 economics, measured: justified-update fractions vs query rate.

The paper's cost model makes three quantified claims that its tables only
exercise implicitly:

1. an update is justified with probability ``1 - e^(-ΛT)``, so the
   justified fraction rises with the query rate;
2. as long as at least half of pushed updates are justified, CUP's
   overhead is completely recovered (each justified hop saves two);
3. the investment return therefore grows with the rate.

This harness sweeps λ under the second-chance policy, reports measured
justified fractions (per-node accounting — a conservative lower bound of
the paper's subtree definition), overhead recovery, and the analytical
probability at the tree root for comparison.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.costmodel import justification_probability
from repro.experiments.base import ExperimentResult, monotone_nondecreasing
from repro.experiments.config import Scale, resolve_scale
from repro.experiments.executor import Cell, execute
from repro.metrics.report import Table


class JustificationResult(ExperimentResult):
    """Measured update economics per query rate."""

    def __init__(self) -> None:
        super().__init__()
        self.rates: List[float] = []
        self.justified_fraction: List[float] = []
        self.analytical_root: List[float] = []
        self.saved_per_overhead: List[float] = []
        self.recovered: List[bool] = []

    def add(self, rate: float, fraction: float, analytical: float,
            saved_ratio: float) -> None:
        self.rates.append(rate)
        self.justified_fraction.append(fraction)
        self.analytical_root.append(analytical)
        self.saved_per_overhead.append(saved_ratio)
        self.recovered.append(fraction >= 0.5)

    def format_table(self) -> str:
        table = Table(
            self.title,
            ["paper-λ", "justified fraction", "analytic P(root)",
             ">=50% (recovered)", "saved/overhead"],
        )
        for i, rate in enumerate(self.rates):
            table.add_row(
                f"{rate:g}",
                f"{self.justified_fraction[i]:.2%}",
                f"{self.analytical_root[i]:.2%}",
                "yes" if self.recovered[i] else "no",
                f"{self.saved_per_overhead[i]:.2f}",
            )
        return table.render()


def run_justification(
    scale: Optional[Scale] = None,
    paper_rates: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
    seed: int = 42,
) -> JustificationResult:
    """Measure §3.1's update economics across query rates."""
    scale = scale or resolve_scale()
    rates = [r for r in paper_rates if r <= scale.max_rate]
    result = JustificationResult()
    result.title = (
        f"§3.1 economics: justified updates vs query rate "
        f"(n={scale.num_nodes}, second-chance, scale={scale.name})"
    )
    cells = []
    for paper_rate in rates:
        config = scale.config(seed=seed, query_rate=scale.rate(paper_rate))
        cells.append(Cell(("cup", paper_rate), config))
        cells.append(Cell(
            ("std", paper_rate), config.variant(mode="standard")
        ))
    summaries = execute(cells)
    for paper_rate in rates:
        cup = summaries[("cup", paper_rate)]
        std = summaries[("std", paper_rate)]
        analytical = justification_probability(
            scale.rate(paper_rate), scale.entry_lifetime
        )
        result.add(
            paper_rate,
            cup.justified_fraction,
            analytical,
            cup.saved_miss_ratio(std),
        )

    result.expect(
        "justified fraction rises with the query rate",
        monotone_nondecreasing(result.justified_fraction, slack=0.05),
    )
    result.expect(
        "second-chance keeps propagation above the 50% break-even at "
        "high rates (per-node measure; a lower bound of the paper's "
        "subtree definition)",
        all(f >= 0.5 for f in result.justified_fraction[-2:]),
    )
    result.expect(
        "investment return grows with the rate",
        result.saved_per_overhead[-1] > result.saved_per_overhead[0],
    )
    result.expect(
        "the break-even law holds empirically: clearly above 50% "
        "justified implies overhead recovered (saved/overhead >= 1)",
        all(
            ratio >= 0.9
            for fraction, ratio in zip(
                result.justified_fraction, result.saved_per_overhead
            )
            if fraction >= 0.55
        ),
    )
    result.expect(
        "measured per-node fraction stays below the analytical root "
        "probability (ours is the conservative bound)",
        all(
            measured <= analytic + 0.05
            for measured, analytic in zip(
                result.justified_fraction, result.analytical_root
            )
        ),
    )
    return result
