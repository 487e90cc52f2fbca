"""Table 2: CUP versus standard caching across network sizes (§3.5).

For n = 2^k nodes (k = 3..12 in the paper) at λ = 1 query/second, four
metrics per size:

* CUP miss cost as a fraction of standard caching's;
* CUP average miss latency (hops per miss);
* standard caching average miss latency;
* saved miss hops per CUP overhead hop (the "investment return").

Also reproduces the §3.5 high-rate comparison point (n = 1024,
λ = 1000): miss-cost ratio ≈ 0.09, CUP latency ≈ 10x below standard
caching, return ≈ 168:1 in the paper.

Shape claims: standard-caching miss latency grows with n much faster
than CUP's, and the high-rate point is dramatically more favorable to
CUP than the low-rate points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.base import ExperimentResult, monotone_nondecreasing
from repro.experiments.config import Scale, resolve_scale
from repro.experiments.executor import Cell, execute
from repro.metrics.report import Table, format_float


class NetworkSizeResult(ExperimentResult):
    """Per-size metric rows (paper Table 2 transposed per column)."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: List[int] = []
        #: metric -> [value per size]
        self.metrics: Dict[str, List[float]] = {
            "miss_ratio": [],
            "cup_latency": [],
            "std_latency": [],
            "saved_per_overhead": [],
        }
        self.high_rate_point: Optional[Dict[str, float]] = None

    def add_size(self, n: int, miss_ratio: float, cup_latency: float,
                 std_latency: float, saved_per_overhead: float) -> None:
        self.sizes.append(n)
        self.metrics["miss_ratio"].append(miss_ratio)
        self.metrics["cup_latency"].append(cup_latency)
        self.metrics["std_latency"].append(std_latency)
        self.metrics["saved_per_overhead"].append(saved_per_overhead)

    def format_table(self) -> str:
        table = Table(
            self.title,
            ["Metric"] + [str(n) for n in self.sizes],
        )
        labels = {
            "miss_ratio": "CUP / STD miss cost",
            "cup_latency": "CUP miss latency",
            "std_latency": "STD miss latency",
            "saved_per_overhead": "Saved miss hops per overhead hop",
        }
        for key, label in labels.items():
            table.add_row(
                label, *(format_float(v, 2) for v in self.metrics[key])
            )
        out = table.render()
        if self.high_rate_point:
            p = self.high_rate_point
            out += (
                f"\nHigh-rate point (§3.5, n={int(p['n'])}, "
                f"paper-λ={p['rate']:g}): miss ratio {p['miss_ratio']:.2f}, "
                f"CUP latency {p['cup_latency']:.1f} vs STD "
                f"{p['std_latency']:.1f} hops, "
                f"return {p['saved_per_overhead']:.1f}:1"
            )
        return out


def run_network_size(
    scale: Optional[Scale] = None,
    exponents: Optional[Sequence[int]] = None,
    paper_rate: float = 1.0,
    high_rate: Optional[float] = 100.0,
    seed: int = 42,
) -> NetworkSizeResult:
    """Reproduce Table 2 plus the §3.5 high-rate comparison point.

    ``exponents`` are the k of n = 2^k; the preset's node count bounds
    the default sweep (paper: 3..12).  The query rate is held at the
    paper's λ (rate is *not* scaled with n here — Table 2 fixes λ = 1
    while growing the network, which is what makes large networks
    favorable to CUP).
    """
    scale = scale or resolve_scale()
    max_k = scale.num_nodes.bit_length() + 1
    exponents = list(exponents) if exponents is not None else list(range(3, max_k + 1))
    result = NetworkSizeResult()
    result.title = (
        f"Table 2: CUP vs standard caching by network size "
        f"(paper-λ={paper_rate:g}, scale={scale.name})"
    )

    with_high_rate = high_rate is not None and high_rate <= scale.max_rate
    cells = []
    for k in exponents:
        n = 2 ** k
        config = scale.config(
            seed=seed, num_nodes=n, query_rate=scale.rate(paper_rate)
        )
        cells.append(Cell(("cup", k), config))
        cells.append(Cell(("std", k), config.variant(mode="standard")))
    if with_high_rate:
        config = scale.config(
            seed=seed,
            num_nodes=2 ** exponents[-1],
            query_rate=scale.rate(high_rate),
        )
        cells.append(Cell(("cup", "high"), config))
        cells.append(Cell(("std", "high"), config.variant(mode="standard")))
    summaries = execute(cells)

    for k in exponents:
        n = 2 ** k
        cup, std = summaries[("cup", k)], summaries[("std", k)]
        result.add_size(
            n,
            miss_ratio=cup.miss_cost / max(std.miss_cost, 1),
            cup_latency=cup.miss_latency,
            std_latency=std.miss_latency,
            saved_per_overhead=cup.saved_miss_ratio(std),
        )

    if with_high_rate:
        n = 2 ** exponents[-1]
        cup, std = summaries[("cup", "high")], summaries[("std", "high")]
        result.high_rate_point = {
            "n": float(n),
            "rate": high_rate,
            "miss_ratio": cup.miss_cost / max(std.miss_cost, 1),
            "cup_latency": cup.miss_latency,
            "std_latency": std.miss_latency,
            "saved_per_overhead": cup.saved_miss_ratio(std),
        }

    result.expect(
        "CUP miss cost below standard caching at every size",
        all(r < 1.0 for r in result.metrics["miss_ratio"]),
    )
    result.expect(
        "standard-caching miss latency grows with network size",
        monotone_nondecreasing(result.metrics["std_latency"], slack=0.15),
    )
    result.expect(
        "CUP miss latency at or below standard caching's at every size "
        "(10% noise tolerance at the smallest networks)",
        all(
            c <= s * 1.10 + 0.2
            for c, s in zip(
                result.metrics["cup_latency"], result.metrics["std_latency"]
            )
        ),
    )
    result.expect(
        "CUP miss latency strictly below standard caching's at the "
        "largest size",
        result.metrics["cup_latency"][-1] < result.metrics["std_latency"][-1],
    )
    result.expect(
        "CUP's latency advantage widens with network size "
        "(last size's gap exceeds the first's)",
        (
            result.metrics["std_latency"][-1]
            - result.metrics["cup_latency"][-1]
        )
        > (
            result.metrics["std_latency"][0]
            - result.metrics["cup_latency"][0]
        ),
    )
    if result.high_rate_point:
        result.expect(
            "high query rate is dramatically more favorable: miss ratio "
            "at high rate below the low-rate ratio at the same size",
            result.high_rate_point["miss_ratio"]
            < result.metrics["miss_ratio"][-1] + 0.05,
        )
        result.expect(
            "high-rate investment return exceeds the low-rate return",
            result.high_rate_point["saved_per_overhead"]
            > result.metrics["saved_per_overhead"][-1],
        )
    return result
