"""Process-local topology snapshot cache for sweep execution.

A sweep's cells usually differ in protocol knobs (query rate, policy,
capacity) while sharing one overlay topology, yet every
:class:`~repro.core.protocol.CupNetwork` construction used to rebuild
that topology from scratch — for Chord, Pastry and joined CANs the build
alone costs longer than many cells' steady state, and the lazily filled
routing memos (next-hop, authority) are thrown away with it.  (A perfect
CAN grid builds nothing until churn needs its zones, so a leased grid
costs — and saves — exactly its memos.)

Routing is a pure function of membership: two runs over the same built
overlay object produce byte-identical results (the fast-path property
suite referees the memos against the reference algorithms, and the
snapshot-reuse tests referee whole-run summaries).  So the executor
leases one built overlay per distinct topology from this cache and
passes it to ``CupNetwork(config, topology=...)``; a serial sweep then
pays the build (and the route-memo warm-up) once per topology instead
of once per cell.  A forked cell attempt inherits what the parent's
cache holds and discards what it adds, so under ``--workers`` a
topology the parent has not built costs one build per attempt.

Safety: a leased snapshot must never change membership.  ``CupNetwork``
guards its churn entry points when built from a snapshot, and the
executor only leases for cells whose scenario declares no churn/crash
hazard.  Any reader may still be the one that materialises a leased
grid's zones (``CanOverlay.state``, a reference scan): that is
idempotent and changes no answer.  The cache key covers exactly the
config fields that shape the overlay; the root seed participates only
when the topology actually consumes randomness (incremental CAN
construction), so e.g. a Chord sweep over seeds still shares one
snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.protocol import CupConfig, build_overlay
from repro.overlay.base import Overlay

#: Built overlays retained per process.  Snapshots are read-mostly and
#: shared, so the bound is about memory, not correctness; at the default
#: bound even n = 65536 topologies stay in the tens of megabytes (a
#: perfect grid: its route memos and nothing else).
MAX_SNAPSHOTS = 4

_snapshots: "OrderedDict[tuple, Overlay]" = OrderedDict()
#: (hits, misses) counters, exposed for tests and sweep reports.
stats = {"hits": 0, "misses": 0}


def snapshot_key(config: CupConfig) -> Tuple:
    """The topology identity of ``config``.

    Covers overlay type and size; the seed joins the key only for the
    incremental (non-power-of-two) CAN construction, the one build path
    that draws from the topology random stream.
    """
    if config.overlay_type == "can":
        n = config.num_nodes
        if n & (n - 1) == 0:
            return ("can-grid", n)
        return ("can-random", n, config.seed)
    return (config.overlay_type, config.num_nodes)


def lease(config: CupConfig) -> Overlay:
    """A built overlay for ``config`` — cached, or built and cached.

    The returned object may be shared with other networks in this
    process; it must not undergo membership changes (CupNetwork enforces
    this when given a ``topology=``).
    """
    key = snapshot_key(config)
    overlay = _snapshots.get(key)
    if overlay is not None:
        _snapshots.move_to_end(key)
        stats["hits"] += 1
        return overlay
    stats["misses"] += 1
    overlay = build_overlay(config)
    _snapshots[key] = overlay
    while len(_snapshots) > MAX_SNAPSHOTS:
        _snapshots.popitem(last=False)
    return overlay


def leased(config: CupConfig) -> Optional[Overlay]:
    """The cached snapshot for ``config`` without building on a miss."""
    return _snapshots.get(snapshot_key(config))


def clear() -> None:
    """Drop every snapshot (tests; memory pressure)."""
    _snapshots.clear()
    stats["hits"] = 0
    stats["misses"] = 0
