"""Table 3: multiple replicas per key and the cut-off trigger fix (§3.6).

With R replicas per key, each replica's refresh arrives at the authority
and propagates separately, so subscribed nodes see R updates per
lifetime.  A *naive* cut-off implementation re-evaluates (and resets the
popularity measure) on every update arrival — so the more replicas, the
less likely a node sees queries between evaluations, and it wrongly cuts
off: **more replicas cause more misses**.  The fix triggers the decision
only on updates for one designated replica, making it independent of the
replica count.

Shape claims checked:

* naive cut-off: misses grow with the replica count;
* replica-independent cut-off: misses do not grow with the replica count;
* total cost grows with the replica count and eventually overtakes
  standard caching (the paper sees the crossover at 8 replicas).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.base import ExperimentResult, monotone_nondecreasing
from repro.experiments.config import Scale, resolve_scale
from repro.experiments.executor import Cell, execute
from repro.metrics.report import Table


class ReplicasResult(ExperimentResult):
    """Rows per replica count: naive vs replica-independent cut-off."""

    def __init__(self) -> None:
        super().__init__()
        self.replica_counts: List[int] = []
        self.naive_miss_cost: List[int] = []
        self.naive_misses: List[int] = []
        self.indep_miss_cost: List[int] = []
        self.indep_misses: List[int] = []
        self.indep_total: List[int] = []
        self.std_total: int = 0

    def add(self, replicas: int, naive_cost: int, naive_misses: int,
            indep_cost: int, indep_misses: int, indep_total: int) -> None:
        self.replica_counts.append(replicas)
        self.naive_miss_cost.append(naive_cost)
        self.naive_misses.append(naive_misses)
        self.indep_miss_cost.append(indep_cost)
        self.indep_misses.append(indep_misses)
        self.indep_total.append(indep_total)

    def format_table(self) -> str:
        table = Table(
            self.title,
            [
                "Replicas",
                "Naive miss cost (misses)",
                "Indep miss cost (misses)",
                "Indep total cost",
            ],
        )
        for i, r in enumerate(self.replica_counts):
            table.add_row(
                r,
                f"{self.naive_miss_cost[i]} ({self.naive_misses[i]})",
                f"{self.indep_miss_cost[i]} ({self.indep_misses[i]})",
                self.indep_total[i],
            )
        return (
            table.render()
            + f"\nStandard caching total cost: {self.std_total}"
        )


def run_replicas_sweep(
    scale: Optional[Scale] = None,
    replica_counts: Sequence[int] = (1, 2, 5, 10, 50, 100),
    paper_rate: float = 1.0,
    seed: int = 42,
) -> ReplicasResult:
    """Reproduce Table 3 (descending rows in the paper; ascending here)."""
    scale = scale or resolve_scale()
    base = scale.config(seed=seed, query_rate=scale.rate(paper_rate))
    result = ReplicasResult()
    result.title = (
        f"Table 3: miss cost & misses vs replicas per key "
        f"(n={base.num_nodes}, paper-λ={paper_rate:g}, scale={scale.name})"
    )

    cells = [Cell("std", base.variant(mode="standard"))]
    for replicas in replica_counts:
        cells.append(Cell(
            ("naive", replicas),
            base.variant(
                replicas_per_key=replicas, replica_independent_cutoff=False
            ),
        ))
        cells.append(Cell(
            ("indep", replicas),
            base.variant(
                replicas_per_key=replicas, replica_independent_cutoff=True
            ),
        ))
    summaries = execute(cells)
    result.std_total = summaries["std"].total_cost

    for replicas in replica_counts:
        naive = summaries[("naive", replicas)]
        indep = summaries[("indep", replicas)]
        result.add(
            replicas,
            naive.miss_cost, naive.misses,
            indep.miss_cost, indep.misses, indep.total_cost,
        )

    result.expect(
        "naive cut-off: misses grow with the replica count",
        result.naive_misses[-1] > result.naive_misses[0],
    )
    result.expect(
        "replica-independent cut-off: misses do not grow with replicas "
        "(within 10%)",
        max(result.indep_misses) <= result.indep_misses[0] * 1.10 + 2,
    )
    result.expect(
        "naive cut-off suffers more misses than replica-independent at "
        "the highest replica count",
        result.naive_misses[-1] > result.indep_misses[-1],
    )
    result.expect(
        "total cost grows with the replica count",
        monotone_nondecreasing([float(t) for t in result.indep_total]),
    )
    result.expect(
        "enough replicas make CUP's total overtake standard caching",
        result.indep_total[-1] > result.std_total,
    )
    return result
