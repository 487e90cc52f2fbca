"""The overlay interface CUP depends on.

CUP is deliberately overlay-agnostic (§2.2 of the paper): it only assumes
that "anytime a node issues a query for key K, the query will be routed
along a well-defined structured path with a bounded number of hops from
the querying node to the authority node for K", and that each hop is
chosen deterministically.  This module captures exactly that contract.

Because routing is deterministic and membership changes are rare relative
to queries, the base class also owns the overlay *fast path*: interned
positions (:class:`InternTable` hashes each NodeId/key string exactly
once and carries an int thereafter) and memoized ``next_hop`` /
``authority`` results, invalidated wholesale whenever the ``epoch``
counter is bumped by a membership change.  Concrete overlays implement
``_compute_next_hop`` / ``_compute_authority``; the public methods serve
repeat lookups from a flat dict.  The unmemoized algorithms remain
reachable through ``next_hop_reference`` / ``authority_reference`` so
property tests can referee the caches against the specification.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Collection, Dict, Iterable, List, Optional

NodeId = Any

#: Sentinel distinguishing "not cached" from a cached ``None`` next hop.
_MISS = object()


class RoutingError(RuntimeError):
    """Raised when an overlay cannot make routing progress.

    A correctly constructed overlay never raises this; it exists to turn
    would-be infinite forwarding loops (e.g. from a corrupted topology in
    a failure-injection test) into loud failures.
    """


class InternTable:
    """Bounded string → position interning (hash once, carry ints).

    Wraps a hash function so each distinct value is pushed through it at
    most once while the table holds it; lookups after the first are dict
    probes.  The table is cleared when it reaches ``max_size`` — interned
    positions are pure functions of the value, so eviction only costs a
    re-hash, never correctness.
    """

    __slots__ = ("_fn", "_table", "_max_size", "misses")

    def __init__(self, fn: Callable[[str], Any], max_size: int = 1 << 20):
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self._fn = fn
        self._table: Dict[str, Any] = {}
        self._max_size = max_size
        self.misses = 0

    def __call__(self, value: str) -> Any:
        table = self._table
        position = table.get(value, _MISS)
        if position is _MISS:
            position = self._fn(value)
            if len(table) >= self._max_size:
                table.clear()
            table[value] = position
            self.misses += 1
        return position

    def __len__(self) -> int:
        return len(self._table)


class Overlay(ABC):
    """Deterministic structured routing substrate.

    Implementations must guarantee:

    * ``authority(key)`` is a pure function of the key and the current
      membership;
    * ``next_hop(node, key)`` returns a *neighbor* of ``node`` that is
      strictly closer to the authority (so routes are loop-free), or
      ``None`` when ``node`` is itself the authority;
    * routes are bounded by :attr:`max_route_length`.

    Subclasses implement ``_compute_next_hop`` / ``_compute_authority``
    and call :meth:`_membership_changed` after every join/leave; the base
    class provides the epoch-invalidated memo in front of both, plus the
    build-time accounting (:attr:`table_build_seconds`,
    :attr:`table_builds`) sweep reports use to separate setup cost from
    steady-state routing throughput.
    """

    #: Safety bound on route length; ``route`` raises beyond this.
    max_route_length = 10_000

    #: Bound on memoized routing results per epoch (each memo counts its
    #: entries: keys for ``authority``, (node, key) pairs for
    #: ``next_hop``); a memo is cleared (not evicted entrywise) when it
    #: reaches this, so a pathological key universe degrades to the
    #: unmemoized cost, never to unbounded memory.
    route_cache_limit = 1 << 20

    def __init__(self) -> None:
        #: Bumped on every membership change; protocol layers and the
        #: routing memos below invalidate against it.
        self.epoch = 0
        #: Cumulative wall seconds spent (re)building derived routing
        #: state — route tables, interned member arrays — and how many
        #: such builds happened.  Setup cost, reported separately from
        #: steady-state throughput.
        self.table_build_seconds = 0.0
        self.table_builds = 0
        # key -> {node: next hop}: one dict per key routed, so a memo
        # entry costs a dict slot, not a (node, key) tuple besides.
        self._next_hop_cache: Dict[str, Dict[NodeId, Optional[NodeId]]] = {}
        self._next_hop_entries = 0
        self._authority_cache: Dict[str, NodeId] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @abstractmethod
    def node_ids(self) -> Collection[NodeId]:
        """All current member node identifiers (sized, with O(1) ``in``)."""

    @abstractmethod
    def neighbors(self, node_id: NodeId) -> Iterable[NodeId]:
        """Direct overlay neighbors of ``node_id``."""

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.node_ids()

    def __len__(self) -> int:
        return len(self.node_ids())

    def _membership_changed(self) -> None:
        """Invalidate every routing memo; call after each join/leave."""
        self.epoch += 1
        self._next_hop_cache.clear()
        self._next_hop_entries = 0
        self._authority_cache.clear()
        self._invalidate_tables()

    def _invalidate_tables(self) -> None:
        """Hook: drop membership-derived routing tables (fingers, sorted
        member arrays, grid indices).  Default: nothing to drop."""

    def _count_table_build(self, started_at: float) -> None:
        """Accrue one derived-table (re)build into the setup-cost tally."""
        self.table_build_seconds += time.perf_counter() - started_at
        self.table_builds += 1

    # ------------------------------------------------------------------
    # Routing (memoized fast path)
    # ------------------------------------------------------------------

    def authority(self, key: str) -> NodeId:
        """The node that owns ``key``'s slice of the global index."""
        cache = self._authority_cache
        owner = cache.get(key, _MISS)
        if owner is _MISS:
            owner = self._compute_authority(key)
            if len(cache) >= self.route_cache_limit:
                cache.clear()
            cache[key] = owner
        return owner

    def next_hop(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        """The neighbor to forward a query for ``key`` to.

        Returns ``None`` iff ``node_id`` is the authority for ``key``.
        Memoized per (node, key) within the current membership epoch.
        """
        per_key = self._next_hop_cache.get(key)
        if per_key is not None:
            hop = per_key.get(node_id, _MISS)
            if hop is not _MISS:
                return hop
        hop = self._compute_next_hop(node_id, key)
        if self._next_hop_entries >= self.route_cache_limit:
            self._next_hop_cache.clear()
            self._next_hop_entries = 0
            per_key = None
        if per_key is None:
            per_key = self._next_hop_cache[key] = {}
        per_key[node_id] = hop
        self._next_hop_entries += 1
        return hop

    def _compute_authority(self, key: str) -> NodeId:
        """Unmemoized authority resolution (overlay-specific)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _compute_authority "
            "or override authority()"
        )

    def _compute_next_hop(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        """Unmemoized next-hop resolution (overlay-specific)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _compute_next_hop "
            "or override next_hop()"
        )

    # ------------------------------------------------------------------
    # Reference (unmemoized) routing — the property-test referee
    # ------------------------------------------------------------------

    def authority_reference(self, key: str) -> NodeId:
        """``authority`` recomputed from scratch, bypassing every memo.

        Overlays with a distinct specification algorithm (e.g. Pastry's
        full-membership affinity scan) override this; the default simply
        re-runs the compute path uncached.
        """
        return self._compute_authority(key)

    def next_hop_reference(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        """``next_hop`` recomputed from scratch, bypassing every memo."""
        return self._compute_next_hop(node_id, key)

    # ------------------------------------------------------------------
    # Derived routing
    # ------------------------------------------------------------------

    def route(self, start: NodeId, key: str) -> List[NodeId]:
        """Full query path from ``start`` to the authority, inclusive.

        The returned list begins with ``start`` and ends with
        ``authority(key)``; its length minus one is the hop distance used
        throughout the paper's cost model.
        """
        path = [start]
        current = start
        for _ in range(self.max_route_length):
            nxt = self.next_hop(current, key)
            if nxt is None:
                return path
            if nxt == current:
                raise RoutingError(
                    f"overlay returned {current!r} as its own next hop for {key!r}"
                )
            path.append(nxt)
            current = nxt
        raise RoutingError(
            f"route for key {key!r} from {start!r} exceeded "
            f"{self.max_route_length} hops"
        )

    def distance(self, node_id: NodeId, key: str) -> int:
        """Hop count from ``node_id`` to the authority for ``key``.

        This is the distance ``D`` used by the probability-based cut-off
        policies (§3.4) and the push-level experiments (§3.3).
        """
        return len(self.route(node_id, key)) - 1
