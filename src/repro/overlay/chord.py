"""A Chord ring overlay (Stoica et al., SIGCOMM 2001).

The paper positions CUP as substrate-agnostic (§2.2): any structured
overlay with deterministic bounded-hop routing can host it.  This Chord
implementation exists to demonstrate that — the CUP protocol layer runs
unchanged over either :class:`~repro.overlay.can.CanOverlay` or this
class — and to let ablation benchmarks compare CUP's behaviour across
routing geometries (Chord's O(log n) greedy-by-identifier paths versus
CAN's O(sqrt n) grid paths).

Routing state is derived from the current membership, not maintained by
a stabilization protocol, so hop sequences are exactly those of a
converged Chord ring.  The fast path precomputes each member's finger
targets (its deduplicated descending-stride finger table) the first time
the member routes in an epoch; ``next_hop`` then scans that flat tuple
instead of bisecting the ring once per finger, and the base class memo
serves repeat (node, key) lookups as dict probes.  Membership changes
bump ``epoch``, which drops both the finger tables and the memo.
"""

from __future__ import annotations

import bisect
import functools
import time
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.overlay.base import InternTable, NodeId, Overlay, RoutingError
from repro.overlay.hashing import hash_to_int


class ChordOverlay(Overlay):
    """Chord ring with power-of-two finger routing.

    Parameters
    ----------
    bits:
        Identifier width ``m``; the ring has ``2**m`` positions.

    Node identifiers are arbitrary hashable values; each is mapped to a
    ring position with the uniform hash (collisions raise, since two
    co-located nodes would be indistinguishable to routing).
    """

    def __init__(self, bits: int = 32):
        if not 3 <= bits <= 64:
            raise ValueError(f"bits must be in [3, 64], got {bits}")
        super().__init__()
        self.bits = bits
        self.size = 1 << bits
        self._id_of: Dict[NodeId, int] = {}
        self._node_at: Dict[int, NodeId] = {}
        self._ring: List[int] = []  # sorted ring positions
        # Interned key → ring position (hashlib runs once per key string;
        # positions do not depend on membership, so never invalidated).
        # A partial, not a lambda: overlays live inside checkpointable
        # networks, and ``bits`` is fixed at construction anyway.
        self._key_position = InternTable(
            functools.partial(hash_to_int, bits=self.bits, salt="chord-key")
        )
        # position → deduplicated descending-stride finger targets,
        # built lazily per member per epoch.
        self._finger_table: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, node_ids: Iterable[NodeId], bits: int = 32) -> "ChordOverlay":
        """Construct a converged ring containing ``node_ids``.

        Bulk construction: positions are inserted unsorted and the ring
        is sorted once, so building n members is O(n log n) instead of
        the O(n^2) of repeated ``join`` insertions.
        """
        overlay = cls(bits=bits)
        started = time.perf_counter()
        for node_id in node_ids:
            overlay._insert(node_id)
        overlay._ring = sorted(overlay._node_at)
        overlay._count_table_build(started)
        overlay._membership_changed()
        return overlay

    def _insert(self, node_id: NodeId) -> int:
        """Hash and record one member without touching the sorted ring."""
        if node_id in self._id_of:
            raise ValueError(f"node {node_id!r} is already a member")
        position = hash_to_int(str(node_id), self.bits, salt="chord-node")
        if position in self._node_at:
            raise ValueError(
                f"ring position collision: {node_id!r} vs "
                f"{self._node_at[position]!r} at {position}"
            )
        self._id_of[node_id] = position
        self._node_at[position] = node_id
        return position

    def join(self, node_id: NodeId) -> None:
        """Add a node at the ring position its identifier hashes to."""
        position = self._insert(node_id)
        bisect.insort(self._ring, position)
        self._membership_changed()

    def leave(self, node_id: NodeId) -> None:
        """Remove a node; its arc is absorbed by its successor."""
        position = self._id_of.pop(node_id, None)
        if position is None:
            raise ValueError(f"node {node_id!r} is not a member")
        del self._node_at[position]
        index = bisect.bisect_left(self._ring, position)
        del self._ring[index]
        self._membership_changed()

    def _invalidate_tables(self) -> None:
        self._finger_table.clear()

    # ------------------------------------------------------------------
    # Ring arithmetic
    # ------------------------------------------------------------------

    def ring_position(self, node_id: NodeId) -> int:
        """Ring position of a member node."""
        return self._id_of[node_id]

    def key_position(self, key: str) -> int:
        """Ring position ``key`` hashes to (interned)."""
        return self._key_position(key)

    def successor_position(self, position: int) -> int:
        """The first member position clockwise from ``position`` (inclusive)."""
        if not self._ring:
            raise RoutingError("empty ring")
        index = bisect.bisect_left(self._ring, position % self.size)
        if index == len(self._ring):
            index = 0
        return self._ring[index]

    @staticmethod
    def _in_open_interval(x: int, lo: int, hi: int, size: int) -> bool:
        """Whether ``x`` lies in the clockwise-open interval ``(lo, hi]``."""
        x, lo, hi = x % size, lo % size, hi % size
        if lo < hi:
            return lo < x <= hi
        return x > lo or x <= hi

    def _fingers(self, position: int) -> Tuple[int, ...]:
        """Deduplicated descending-stride finger targets of one member.

        Equivalent to probing ``successor_position(position + 2**i)`` for
        ``i = bits-1 .. 0`` on every routing decision: re-checking a
        duplicate target cannot change the closest-preceding-finger
        outcome, so deduplication preserves hop sequences exactly.
        """
        fingers = self._finger_table.get(position)
        if fingers is None:
            started = time.perf_counter()
            seen: Set[int] = set()
            ordered: List[int] = []
            for i in reversed(range(self.bits)):
                target = self.successor_position(position + (1 << i))
                if target != position and target not in seen:
                    seen.add(target)
                    ordered.append(target)
            fingers = tuple(ordered)
            self._finger_table[position] = fingers
            self._count_table_build(started)
        return fingers

    # ------------------------------------------------------------------
    # Overlay interface
    # ------------------------------------------------------------------

    def node_ids(self) -> Collection[NodeId]:
        return self._id_of.keys()

    def neighbors(self, node_id: NodeId) -> Iterable[NodeId]:
        """Finger targets plus successor and predecessor.

        This is the set of nodes ``node_id`` can send to in one hop, i.e.
        the candidates CUP keeps interest-bit state for.
        """
        position = self._id_of[node_id]
        out: Set[NodeId] = set()
        if len(self._ring) == 1:
            return out
        for target in self._fingers(position):
            out.add(self._node_at[target])
        index = bisect.bisect_left(self._ring, position)
        predecessor = self._ring[index - 1]
        if predecessor != position:
            out.add(self._node_at[predecessor])
        return out

    def _compute_authority(self, key: str) -> NodeId:
        if not self._ring:
            raise RoutingError("empty ring")
        return self._node_at[self.successor_position(self.key_position(key))]

    def _compute_next_hop(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        """Chord greedy routing: closest preceding finger, else successor."""
        position = self._id_of.get(node_id)
        if position is None:
            raise RoutingError(f"node {node_id!r} is not a member")
        key_pos = self.key_position(key)
        if self.successor_position(key_pos) == position:
            return None
        successor = self.successor_position(position + 1)
        if self._in_open_interval(key_pos, position, successor, self.size):
            return self._node_at[successor]
        # Closest preceding finger: the farthest finger that does not
        # overshoot the key, scanning from the largest stride down.
        size = self.size
        in_open = self._in_open_interval
        for finger in self._fingers(position):
            if in_open(finger, position, key_pos - 1, size):
                return self._node_at[finger]
        return self._node_at[successor]

    def next_hop_reference(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        """The pre-fast-path algorithm: per-call finger bisects, no memo."""
        position = self._id_of.get(node_id)
        if position is None:
            raise RoutingError(f"node {node_id!r} is not a member")
        key_pos = hash_to_int(key, self.bits, salt="chord-key")
        if self.successor_position(key_pos) == position:
            return None
        successor = self.successor_position(position + 1)
        if self._in_open_interval(key_pos, position, successor, self.size):
            return self._node_at[successor]
        for i in reversed(range(self.bits)):
            finger = self.successor_position(position + (1 << i))
            if finger == position:
                continue
            if self._in_open_interval(finger, position, key_pos - 1, self.size):
                return self._node_at[finger]
        return self._node_at[successor]
