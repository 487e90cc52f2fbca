"""The CUP protocol — the paper's primary contribution.

Controlled Update Propagation (CUP) maintains caches of index entries at
the intermediate nodes of a structured peer-to-peer overlay.  Queries for
a key travel *up* query channels toward the key's authority node; updates
(query responses, refreshes, deletes, appends) travel *down* update
channels along the reverse query paths.  Light per-node bookkeeping — a
Pending-First-Update flag and an interest bit vector per key — coalesces
query bursts and confines update propagation to nodes that want it, and
incentive-based cut-off policies decide when a node stops receiving
updates for a key.

Modules
-------
``entry``
    Index entries: (key, value) pairs with lifetimes and timestamps.
``messages``
    Queries, the four update types, clear-bit control messages.
``cache``
    Per-key node state: cached entries, PFU flag, interest bits,
    popularity bookkeeping.
``policies``
    Cut-off policies: all-out/push-level, linear, logarithmic, log-based,
    second-chance (§3.4).
``channels``
    Outgoing update channels with adaptive capacity control (§2.8).
``node``
    The CUP node state machine (§2.5-2.7) and authority behaviour.
``protocol``
    Network assembly: configuration, wiring of overlay + replicas +
    workload + metrics, churn operations (§2.9).
``trees``
    Virtual/real query tree construction (§3.1).
``costmodel``
    The analytical cost model: justification probabilities, break-even
    analysis (§3.1).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "cache": "KeyState NodeCache",
    "channels": "CapacityConfig OutgoingUpdateChannels",
    "costmodel": "break_even_justified_fraction justification_probability "
                 "standard_caching_miss_cost",
    "entry": "IndexEntry",
    "keepalive": "",
    "messages": "ClearBitMessage QueryMessage ReplicaEvent ReplicaMessage "
                "UpdateMessage UpdateType",
    "node": "CupNode",
    "policies": "AllOutPolicy CutoffPolicy LinearPolicy LogarithmicPolicy "
                "LogBasedPolicy SecondChancePolicy make_policy",
    "protocol": "CupConfig CupNetwork",
    "recovery": "",
    "trees": "QueryTree",
})
