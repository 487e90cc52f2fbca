"""The three simulator workloads: one macro cell each, repeated.

A repetition is what a user of the simulator waits for: build the network
(``setup``), then ``run()`` it to the end.  Repetitions are identical by
construction (same seed, fresh network), so the correctness gate demands
identical summaries and the timing is the only thing that varies.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, List, NamedTuple

from repro.core.protocol import CupNetwork
from repro.experiments.config import SMALL
from repro.scenarios import SCENARIOS, run_scenario, with_chaos

import spans
from common import (
    GateError, Result, calibration_ns_per_iter, peak_rss_mb, ratio,
)
from stats import percentile, tail_quantile

#: ``total_cost`` of the clean cell at seed 42, by network size; both post
#: 74,716 queries.  The repo's golden pins since PR 2 / PR 3.
GOLDEN_QUERIES = 74716
GOLDEN_COST = {1024: 15358, 16384: 239336}

#: Network sizes: (full, for the smoke test).
_NODES = {
    "sim_query_heavy": (1024, 256),
    "sim_hop_heavy": (16384, 1024),
    "sim_adverse": (1024, 128),
}

_ADVERSE = with_chaos(
    SCENARIOS["capacity-sag"], loss=0.1, duplicate=0.05, jitter=0.05
)


def _clean_config(seed: int, num_nodes: int):
    return SMALL.config(
        seed=seed, num_nodes=num_nodes, query_rate=SMALL.rate(100)
    )


def _adverse_base(num_nodes: int):
    # capacity_rate is what makes the channels pump: the scenario's
    # CapacityFault alone only flips suppression coins.
    return SMALL.config(
        num_nodes=num_nodes, query_rate=SMALL.rate(100) / 4, total_keys=64,
        key_distribution="zipf", capacity_rate=20.0,
    )


def _builder(workload: str, seed: int, smoke: bool) -> Callable[[], CupNetwork]:
    num_nodes = _NODES[workload][smoke]
    if workload == "sim_adverse":
        base = _adverse_base(num_nodes)

        def build() -> CupNetwork:
            # run_scenario(..., invariants=False), spelled out so the
            # set-up and the run can be timed apart.
            network = CupNetwork(_ADVERSE.build_config(base=base, seed=seed))
            _ADVERSE.compile_onto(network)
            return network

        return build
    return lambda: CupNetwork(_clean_config(seed, num_nodes))


class _Rep(NamedTuple):
    setup_s: float
    run_s: float
    events: int
    summary: object


def _repeat(build, deadline: float):
    """Fresh-network repetitions until ``deadline`` (``perf_counter``),
    at least one; returns them and the last network."""
    reps: List[_Rep] = []
    network = None
    while not reps or time.perf_counter() < deadline:
        network = None  # one network alive at a time
        gc.collect()
        started = time.perf_counter()
        network = build()
        built = time.perf_counter()
        summary = network.run()
        ended = time.perf_counter()
        reps.append(_Rep(built - started, ended - built,
                         network.sim.events_processed, summary))
    return reps, network


def _gate(workload: str, seed: int, reps: List[_Rep], network) -> None:
    first = reps[0]
    for rep in reps[1:]:
        if rep.summary != first.summary or rep.events != first.events:
            raise GateError(
                f"{workload}: repetitions of one seed disagree: "
                f"{rep.summary} != {first.summary}"
            )
    broken = [
        identity for identity in network.metrics.audit_identities()
        if identity[1] != identity[2]
    ]
    if broken:
        raise GateError(f"{workload}: cost identities broken: {broken}")
    summary = first.summary
    pin = GOLDEN_COST.get(network.config.num_nodes)
    if workload != "sim_adverse" and seed == 42 and pin is not None:
        if (summary.queries_posted, summary.total_cost) != (GOLDEN_QUERIES, pin):
            raise GateError(
                f"{workload}: golden pins moved: queries_posted="
                f"{summary.queries_posted} total_cost={summary.total_cost}, "
                f"pinned {GOLDEN_QUERIES} / {pin}"
            )
    if workload == "sim_adverse":
        checked = run_scenario(
            _ADVERSE, seed=seed,
            base_config=_adverse_base(network.config.num_nodes),
            invariants=True, convergence=True, raise_on_violation=False,
        )
        if not checked.ok:
            raise GateError(
                f"sim_adverse: invariant violations: "
                f"{checked.checker.report()}"
            )
        if checked.summary != summary:
            raise GateError(
                "sim_adverse: the invariant-checked run's summary differs "
                "from the timed one"
            )


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> Result:
    build = _builder(workload, seed, smoke)
    warm, _ = _repeat(build, deadline=0.0)  # discarded: imports, lru caches
    notes = []
    if not trace:
        reps, network = _repeat(build, time.perf_counter() + seconds)
        peak = peak_rss_mb()  # before the gate's invariant-checked run
        cell_ms = [(rep.setup_s + rep.run_s) * 1e3 for rep in reps]
        q = tail_quantile(len(reps))
        notes.append(
            f"{len(reps)} repetitions of {reps[0].events} events; latency "
            f"is set-up + run of one repetition, tail is p{q * 100:.0f}"
        )
        metrics = {
            "setup_s": statistics.median(rep.setup_s for rep in reps),
            "ops_per_s": statistics.median(
                rep.events / rep.run_s for rep in reps),
            "latency_p50_ms": percentile(cell_ms, 0.5),
            "latency_tail_ms": percentile(cell_ms, q),
            "peak_rss_mb": peak,
        }
        _gate(workload, seed, warm + reps, network)
        return Result(len(reps), 0, metrics, notes)

    calibration = calibration_ns_per_iter()
    plain, _ = _repeat(build, time.perf_counter() + seconds / 4)
    tracer = spans.Tracer()
    tracer.install(spans.SIM_TARGETS)
    traced, network = _repeat(build, time.perf_counter() + seconds * 3 / 4)
    totals = tracer.merged()  # before the gate runs its own scenario
    _gate(workload, seed, warm + plain + traced, network)
    plain_rate = statistics.median(rep.events / rep.run_s for rep in plain)
    traced_rate = statistics.median(rep.events / rep.run_s for rep in traced)
    notes.append(
        f"{len(plain)} plain and {len(traced)} traced repetitions: "
        f"{plain_rate:.0f} and {traced_rate:.0f} events/s"
    )
    metrics = _layer_metrics(totals, traced, network)
    metrics["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
    metrics["host.calibration_ns_per_iter"] = calibration
    return Result(len(plain) + len(traced), 0, metrics, notes)


def _layer_metrics(totals, reps: List[_Rep], network) -> dict:
    count = len(reps)
    summary, events = reps[-1].summary, reps[-1].events
    transport = network.transport
    recovery = network.metrics.recovery_report()

    def calls(*names: str) -> float:
        return sum(totals.calls[name] for name in names) / count

    def self_ns_per_event(layer: str) -> float:
        return totals.self_ns[layer] / (count * events)

    def median_s(name: str) -> float:
        samples = totals.samples[name]
        return statistics.median(samples) / 1e9 if samples else 0.0

    fanouts = totals.calls["sim.network:Transport.send_fanout"]
    posted = totals.calls["core.node:CupNode.post_local_query"]
    receives = totals.calls["core.node:CupNode.receive"]
    wall_ns = sum(totals.self_ns.values())
    metrics = {
        "core.protocol.build_s": median_s("core.protocol:CupNetwork.__init__"),
        "core.protocol.run_s": median_s("core.protocol:CupNetwork.run"),
        "core.protocol.cost_per_query": ratio(
            summary.total_cost, summary.queries_posted),
        "sim.engine.events": events,
        "sim.engine.scheduled": calls(
            "sim.engine:Simulator.schedule",
            "sim.engine:Simulator.schedule_hop"),
        "sim.network.sends": transport.sent,
        "sim.network.fanout_calls": fanouts / count,
        "sim.network.fanout_width_mean": ratio(
            totals.sums["fanout_width"], fanouts),
        "sim.network.lost": transport.lost,
        "sim.network.duplicated": transport.duplicated,
        "sim.network.blocked": transport.blocked,
        "core.node.receives": receives / count,
        "core.node.local_queries": posted / count,
        "core.node.local_hit_ratio": ratio(totals.sums["local_hits"], posted),
        "core.node.receive_us": ratio(
            totals.total_ns["core.node:CupNode.receive"], receives) / 1e3,
        "core.channels.pushes": calls(
            "core.channels:OutgoingUpdateChannels.push"),
        "core.channels.pumps": calls(
            "core.channels:OutgoingUpdateChannels._pump_once"),
        "core.channels.dropped_expired": summary.updates_dropped_expired,
        "core.recovery.stamps": calls("core.recovery:RecoveryManager.stamp"),
        "core.recovery.gaps_detected": recovery["gaps_detected"],
        "core.recovery.nacks_sent": recovery["nacks_sent"],
        "core.recovery.recovered_ratio": ratio(
            recovery["recovered_updates"], recovery["gaps_detected"]),
        "overlay.lookups": calls(
            "overlay:Overlay.next_hop", "overlay:Overlay.authority",
            "overlay:Overlay.distance"),
        "overlay.build_s": median_s("overlay:build_overlay"),
        "workload.queries": calls("workload:QueryWorkload._fire"),
        # What the glue in CupNetwork.__init__/run spent outside every
        # named entry point (node construction, replica scheduling, the
        # summary), as a share of all traced time.
        "sim.unattributed_share": ratio(
            totals.self_ns["core.protocol"], wall_ns),
    }
    for layer in ("sim.engine", "sim.network", "core.node", "core.channels",
                  "core.recovery", "overlay", "workload"):
        metrics[f"{layer}.self_ns_per_event"] = self_ns_per_event(layer)
    return metrics
