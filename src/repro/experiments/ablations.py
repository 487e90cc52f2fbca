"""Ablation experiments: isolating CUP's design choices.

The paper motivates several mechanisms qualitatively; these harnesses
measure each one's contribution separately:

* **Coalescing** (§1, §4 "open connection problem") — standard caching
  vs. standard + CUP's query coalescing vs. full CUP: how much of the
  win is bursts collapsing, how much is update propagation?
* **Overlay substrate** (§2.2) — CUP over CAN vs. over Chord: the
  protocol is substrate-agnostic; gains should appear on both, with
  absolute costs scaled by the substrates' route lengths.
* **Capacity mechanism** (§2.8 vs §3.7) — probabilistic fractional
  forwarding vs. the rate-limited pump with priority reordering: the
  pump defers updates instead of dropping them.
* **Key-popularity skew** — uniform vs. Zipf multi-key workloads at the
  same aggregate rate.  Per-key CUP trees are independent, so the
  *relative* CUP-vs-standard economics turn out skew-insensitive, while
  absolute traffic shrinks with skew for both protocols (hot keys are
  served from caches; cold keys are cut off cheaply).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.config import Scale, resolve_scale
from repro.experiments.executor import execute
from repro.metrics.collector import MetricsSummary
from repro.metrics.report import Table


class AblationResult(ExperimentResult):
    """Generic labelled-row result for ablation tables."""

    def __init__(self, title: str, headers: List[str]):
        super().__init__()
        self.title = title
        self.headers = headers
        self.rows: List[List[object]] = []

    def add_row(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def format_table(self) -> str:
        table = Table(self.title, self.headers)
        for row in self.rows:
            table.add_row(*row)
        return table.render()


def run_coalescing_ablation(
    scale: Optional[Scale] = None, paper_rate: float = 10.0, seed: int = 42,
) -> AblationResult:
    """Standard vs standard+coalescing vs CUP at one operating point."""
    scale = scale or resolve_scale()
    base = scale.config(seed=seed, query_rate=scale.rate(paper_rate))
    result = AblationResult(
        f"Ablation: query coalescing (n={base.num_nodes}, "
        f"paper-λ={paper_rate:g}, scale={scale.name})",
        ["variant", "miss cost", "overhead", "total", "misses",
         "coalesced"],
    )
    variants = {
        "standard (open connections)": base.variant(mode="standard"),
        "standard + coalescing": base.variant(mode="standard-coalescing"),
        "full CUP (second-chance)": base,
    }
    summaries: Dict[str, MetricsSummary] = execute(variants)
    for label, summary in summaries.items():
        result.add_row(
            label, summary.miss_cost, summary.overhead_cost,
            summary.total_cost, summary.misses, summary.coalesced_queries,
        )
    std = summaries["standard (open connections)"]
    coal = summaries["standard + coalescing"]
    cup = summaries["full CUP (second-chance)"]
    result.expect(
        "coalescing alone never exceeds plain standard caching",
        coal.total_cost <= std.total_cost * 1.02,
    )
    result.expect(
        "update propagation adds savings beyond coalescing",
        cup.miss_cost < coal.miss_cost,
    )
    result.expect(
        "coalescing happens only in coalescing variants",
        std.coalesced_queries == 0 and cup.coalesced_queries >= 0,
    )
    return result


def run_overlay_ablation(
    scale: Optional[Scale] = None, paper_rate: float = 1.0, seed: int = 42,
) -> AblationResult:
    """CUP over CAN vs over Chord: substrate-agnosticism check."""
    scale = scale or resolve_scale()
    base = scale.config(seed=seed, query_rate=scale.rate(paper_rate))
    result = AblationResult(
        f"Ablation: overlay substrate (n={base.num_nodes}, "
        f"paper-λ={paper_rate:g}, scale={scale.name})",
        ["overlay", "CUP miss", "STD miss", "miss ratio",
         "CUP latency", "STD latency"],
    )
    overlays = ("can", "chord", "pastry")
    cells = {}
    for overlay in overlays:
        cells[("cup", overlay)] = base.variant(overlay_type=overlay)
        cells[("std", overlay)] = base.variant(
            overlay_type=overlay, mode="standard"
        )
    summaries = execute(cells)
    ratios = {}
    for overlay in overlays:
        cup = summaries[("cup", overlay)]
        std = summaries[("std", overlay)]
        ratio = cup.miss_cost / max(std.miss_cost, 1)
        ratios[overlay] = ratio
        result.add_row(
            overlay, cup.miss_cost, std.miss_cost, f"{ratio:.2f}",
            f"{cup.miss_latency:.2f}", f"{std.miss_latency:.2f}",
        )
        result.expect(
            f"CUP reduces miss cost over {overlay}", ratio < 1.0
        )
    return result


def run_capacity_mechanism_ablation(
    scale: Optional[Scale] = None, paper_rate: float = 10.0, seed: int = 42,
) -> AblationResult:
    """Fractional forwarding (§3.7) vs the rate pump (§2.8)."""
    scale = scale or resolve_scale()
    base = scale.config(seed=seed, query_rate=scale.rate(paper_rate))
    summaries = execute({
        "full": base,
        # A rate low enough to bite: roughly one update per entry
        # lifetime per channel at the subscribed-tree sizes these runs
        # produce.
        "rate": base.variant(capacity_rate=2.0),
        "fractional": base.variant(capacity_fraction=0.5),
    })
    full = summaries["full"]
    rate_limited = summaries["rate"]
    fractional = summaries["fractional"]
    result = AblationResult(
        f"Ablation: capacity mechanism (n={base.num_nodes}, "
        f"paper-λ={paper_rate:g}, scale={scale.name})",
        ["variant", "miss cost", "overhead", "total", "suppressed"],
    )
    for label, summary in [
        ("unlimited capacity", full),
        ("rate pump, 2 updates/s/node", rate_limited),
        ("fractional forwarding, c=0.5", fractional),
    ]:
        result.add_row(
            label, summary.miss_cost, summary.overhead_cost,
            summary.total_cost, summary.updates_suppressed,
        )
    result.expect(
        "limiting capacity cannot reduce miss cost",
        min(rate_limited.miss_cost, fractional.miss_cost)
        >= full.miss_cost * 0.95,
    )
    result.expect(
        "fractional forwarding drops updates (suppression counted)",
        fractional.updates_suppressed > 0,
    )
    result.expect(
        "the rate pump defers instead of dropping (no suppression)",
        rate_limited.updates_suppressed == 0,
    )
    return result


def run_aggregation_ablation(
    scale: Optional[Scale] = None,
    paper_rate: float = 1.0,
    replicas: int = 10,
    seed: int = 42,
) -> AblationResult:
    """§3.6's authority-side overhead-reduction techniques.

    With many replicas per key, per-replica refresh propagation dominates
    CUP's total cost (Table 3).  The paper proposes two mitigations the
    authority can apply: propagate only a *sample* of refreshes, or
    *aggregate* refreshes arriving within a threshold window into one
    batched update.  This harness sweeps both at a high replica count.
    """
    scale = scale or resolve_scale()
    lifetime = scale.entry_lifetime
    base = scale.config(
        seed=seed, query_rate=scale.rate(paper_rate),
        replicas_per_key=replicas,
    )
    result = AblationResult(
        f"Ablation: refresh aggregation & sampling "
        f"({replicas} replicas/key, n={base.num_nodes}, "
        f"paper-λ={paper_rate:g}, scale={scale.name})",
        ["variant", "miss cost", "overhead", "total", "misses"],
    )
    variants = [
        ("no mitigation", base),
        (
            f"aggregate, window L/16 ({lifetime / 16:g}s)",
            base.variant(refresh_aggregation_window=lifetime / 16),
        ),
        (
            f"aggregate, window L/4 ({lifetime / 4:g}s)",
            base.variant(refresh_aggregation_window=lifetime / 4),
        ),
        ("sample 50% of refreshes",
         base.variant(refresh_sample_fraction=0.5)),
        ("sample 20% of refreshes",
         base.variant(refresh_sample_fraction=0.2)),
    ]
    summaries: Dict[str, MetricsSummary] = execute(dict(variants))
    for label, summary in summaries.items():
        result.add_row(
            label, summary.miss_cost, summary.overhead_cost,
            summary.total_cost, summary.misses,
        )
    plain = summaries["no mitigation"]
    wide = summaries[f"aggregate, window L/4 ({lifetime / 4:g}s)"]
    narrow = summaries[f"aggregate, window L/16 ({lifetime / 16:g}s)"]
    sampled = summaries["sample 20% of refreshes"]
    result.expect(
        "aggregation reduces update overhead",
        wide.overhead_cost < plain.overhead_cost,
    )
    result.expect(
        "a wider window reduces overhead more",
        wide.overhead_cost <= narrow.overhead_cost,
    )
    result.expect(
        "sampling reduces update overhead",
        sampled.overhead_cost < plain.overhead_cost,
    )
    result.expect(
        "mitigations keep total cost at or below the unmitigated run",
        min(wide.total_cost, sampled.total_cost) <= plain.total_cost,
    )
    return result


def run_zipf_ablation(
    scale: Optional[Scale] = None,
    paper_rate: float = 10.0,
    total_keys: int = 16,
    exponents: Sequence[float] = (0.0, 0.8, 1.4),
    seed: int = 42,
) -> AblationResult:
    """CUP-vs-standard economics under key-popularity skew.

    Finding (stated as checked expectations): absolute traffic shrinks
    with skew for *both* protocols — hot keys are answered from warm
    caches, cold keys are cut off after two idle intervals — while the
    CUP/standard cost ratio stays roughly constant, because per-key CUP
    trees are independent and the ratio is set by per-tree economics,
    not by how queries are apportioned across trees.
    """
    scale = scale or resolve_scale()
    base = scale.config(
        seed=seed, query_rate=scale.rate(paper_rate), total_keys=total_keys
    )
    result = AblationResult(
        f"Ablation: key-popularity skew ({total_keys} keys, "
        f"n={base.num_nodes}, paper-λ={paper_rate:g}, scale={scale.name})",
        ["Zipf s", "CUP total", "STD total", "total ratio", "miss ratio"],
    )
    cells = {}
    for s in exponents:
        distribution = "uniform" if s == 0.0 else "zipf"
        cells[("cup", s)] = base.variant(
            key_distribution=distribution, zipf_s=s
        )
        cells[("std", s)] = base.variant(
            key_distribution=distribution, zipf_s=s, mode="standard"
        )
    summaries = execute(cells)
    ratios = []
    cup_totals = []
    std_totals = []
    for s in exponents:
        cup = summaries[("cup", s)]
        std = summaries[("std", s)]
        total_ratio = cup.total_cost / max(std.total_cost, 1)
        miss_ratio = cup.miss_cost / max(std.miss_cost, 1)
        ratios.append(total_ratio)
        cup_totals.append(cup.total_cost)
        std_totals.append(std.total_cost)
        result.add_row(
            f"{s:g}", cup.total_cost, std.total_cost,
            f"{total_ratio:.2f}", f"{miss_ratio:.2f}",
        )
    result.expect(
        "skew reduces absolute CUP traffic (hot keys cached, cold keys "
        "cut off)",
        cup_totals[-1] < cup_totals[0],
    )
    result.expect(
        "skew reduces absolute standard-caching traffic too",
        std_totals[-1] < std_totals[0],
    )
    result.expect(
        "the CUP/standard cost ratio is roughly skew-insensitive "
        "(per-key trees are independent)",
        abs(ratios[-1] - ratios[0]) <= 0.10,
    )
    return result
