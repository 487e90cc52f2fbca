"""CUP: Controlled Update Propagation in Peer-to-Peer Networks.

A complete reproduction of Roussopoulos & Baker's CUP (arXiv cs.NI/0202008,
USENIX 2003): the CUP cache-maintenance protocol, the structured-overlay
substrates it runs on (a 2-D CAN and a Chord ring), a deterministic
discrete-event simulator, the content replica model, workload generators,
metrics matching the paper's hop-count cost model, and an experiment
harness that regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import CupConfig, CupNetwork
>>> config = CupConfig(num_nodes=64, query_rate=5.0, seed=7,
...                    query_start=60.0, query_duration=300.0, drain=60.0)
>>> cup = CupNetwork(config).run()
>>> std = CupNetwork(config.variant(mode="standard")).run()
>>> cup.miss_cost < std.miss_cost
True

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
table/figure reproductions.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved through the sub-package that exports the name (itself lazy);
# a leaf path only where the sub-package does not re-export it.
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "core": "AllOutPolicy CapacityConfig ClearBitMessage CupConfig "
            "CupNetwork CupNode CutoffPolicy IndexEntry KeyState "
            "LinearPolicy LogBasedPolicy LogarithmicPolicy NodeCache "
            "OutgoingUpdateChannels QueryMessage QueryTree ReplicaEvent "
            "ReplicaMessage SecondChancePolicy UpdateMessage UpdateType "
            "break_even_justified_fraction justification_probability "
            "make_policy standard_caching_miss_cost",
    "core.costmodel": "expected_update_value saved_miss_overhead_ratio",
    "experiments": "",
    "invariants": "InvariantChecker InvariantViolationError",
    "metrics": "MetricsCollector MetricsSummary",
    "net": "",
    "overlay": "CanOverlay ChordOverlay Overlay PastryOverlay RoutingError "
               "Zone",
    "persistence": "",
    "replicas": "AuthorityIndex Replica ReplicaSet",
    "scenarios": "Scenario run_scenario",
    "sim": "RandomStreams Simulator Transport",
    "workload": "CapacityFaultSchedule FlashCrowdKeys QueryTrace "
                "QueryWorkload UniformKeys ZipfKeys once_down_always_down "
                "up_and_down",
    "workload.keyspace": "RotatingHotKeys",
})
