"""A Pastry overlay (Rowstron & Druschel, Middleware 2001).

The third of the four substrates the paper names (§2.2).  Pastry routes
by identifier *prefix*: node and key identifiers are strings of base-16
digits; each hop forwards to a node sharing at least one more leading
digit with the key, falling back to a numerically closer node when the
routing table has no longer-prefix entry.  Expected route length is
O(log_16 n).

As with our Chord, routing state is derived on demand from the global
membership rather than maintained by the join/leaf-set protocols: the
hop sequences match a converged Pastry ring, which is all CUP's
behaviour depends on.

Ownership and termination use a single total order — the *affinity* of a
node id for a key: ``(shared_prefix_digits, -circular_distance, id)``.
The authority for a key is the affinity maximum; every hop strictly
increases affinity, so routes are loop-free and end at the authority.
This folds Pastry's leaf-set tie-breaking into one deterministic rule
(documented simplification of the real protocol's final-hop handling).

Fast path
---------
The specification algorithm scans every member per routing decision
(kept verbatim as ``next_hop_reference`` / ``authority_reference``).
The fast path exploits a structural fact: members sharing ``l`` leading
digits with a key occupy one aligned, contiguous identifier block around
the key, so for *any* contiguous candidate interval around the key
position the affinity maximum is attained at the interval's nearest
member below or above the key.  The affinity maximum over the whole
membership — and over the "strictly longer prefix" subset that drives
prefix hops — is therefore decided by inspecting at most the two sorted
neighbors of the key position (plus one skip past the routing node
itself), turning each decision into one bisect over the interned
position array: O(log n) instead of O(n).  Shared-prefix length is a
single XOR/bit_length, not a per-digit loop, and the base class memo
serves repeat (node, key) decisions as dict probes, invalidated when a
membership change bumps ``epoch``.
"""

from __future__ import annotations

import bisect
import functools
import time
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.overlay.base import InternTable, NodeId, Overlay, RoutingError
from repro.overlay.hashing import hash_to_int

#: Base-16 digits, as in the Pastry paper (b = 4 bits per digit).
DIGIT_BITS = 4


class PastryOverlay(Overlay):
    """Prefix-routing overlay with numerically-closest ownership.

    Parameters
    ----------
    digits:
        Identifier length in base-16 digits (id space is
        ``16**digits``).  Eight digits (32 bits) comfortably avoids
        collisions for the network sizes the experiments use.
    """

    def __init__(self, digits: int = 8):
        if not 2 <= digits <= 16:
            raise ValueError(f"digits must be in [2, 16], got {digits}")
        super().__init__()
        self.digits = digits
        self.bits = digits * DIGIT_BITS
        self.size = 1 << self.bits
        self._id_of: Dict[NodeId, int] = {}
        self._node_at: Dict[int, NodeId] = {}
        self._members: List[Tuple[int, NodeId]] = []  # sorted by position
        # Interned key → identifier position (hashlib once per string;
        # membership-independent, so never invalidated).  A partial, not
        # a lambda, so the overlay stays picklable for checkpoints.
        self._key_position = InternTable(
            functools.partial(hash_to_int, bits=self.bits, salt="pastry-key")
        )
        # Parallel interned arrays derived from _members, rebuilt lazily
        # once per epoch: positions for bisect, ids for the result.
        self._positions: List[int] = []
        self._ids_sorted: List[NodeId] = []
        self._tables_epoch = -1

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, node_ids: Iterable[NodeId], digits: int = 8) -> "PastryOverlay":
        """Construct a converged overlay containing ``node_ids``.

        Bulk construction: members are collected unsorted and sorted
        once, so building n members is O(n log n) instead of the
        O(n^2 log n) of repeated per-join sorts.
        """
        overlay = cls(digits=digits)
        started = time.perf_counter()
        for node_id in node_ids:
            overlay._insert(node_id)
        overlay._members.sort()
        overlay._count_table_build(started)
        overlay._membership_changed()
        return overlay

    def _insert(self, node_id: NodeId) -> int:
        """Hash and record one member without re-sorting the member list."""
        if node_id in self._id_of:
            raise ValueError(f"node {node_id!r} is already a member")
        position = hash_to_int(str(node_id), self.bits, salt="pastry-node")
        if position in self._node_at:
            raise ValueError(
                f"identifier collision: {node_id!r} vs "
                f"{self._node_at[position]!r}"
            )
        self._id_of[node_id] = position
        self._node_at[position] = node_id
        self._members.append((position, node_id))
        return position

    def join(self, node_id: NodeId) -> None:
        self._insert(node_id)
        self._members.sort()
        self._membership_changed()

    def leave(self, node_id: NodeId) -> None:
        position = self._id_of.pop(node_id, None)
        if position is None:
            raise ValueError(f"node {node_id!r} is not a member")
        del self._node_at[position]
        self._members.remove((position, node_id))
        self._membership_changed()

    def _invalidate_tables(self) -> None:
        self._tables_epoch = -1

    def _sorted_tables(self) -> Tuple[List[int], List[NodeId]]:
        """Parallel (positions, ids) arrays, rebuilt once per epoch."""
        if self._tables_epoch != self.epoch:
            started = time.perf_counter()
            self._positions = [position for position, _ in self._members]
            self._ids_sorted = [node_id for _, node_id in self._members]
            self._tables_epoch = self.epoch
            self._count_table_build(started)
        return self._positions, self._ids_sorted

    # ------------------------------------------------------------------
    # Identifier arithmetic
    # ------------------------------------------------------------------

    def node_position(self, node_id: NodeId) -> int:
        return self._id_of[node_id]

    def key_position(self, key: str) -> int:
        return self._key_position(key)

    def shared_prefix(self, a: int, b: int) -> int:
        """Leading base-16 digits ``a`` and ``b`` have in common.

        One XOR and a bit_length: the highest differing bit pins the
        first differing digit, so no per-digit loop is needed.
        """
        x = a ^ b
        if x == 0:
            return self.digits
        return (self.bits - x.bit_length()) // DIGIT_BITS

    def _circular_distance(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.size - d)

    def _affinity(self, position: int, key_pos: int) -> Tuple[int, int, int]:
        """Total order of ownership: longer prefix, then closer, then id."""
        return (
            self.shared_prefix(position, key_pos),
            -self._circular_distance(position, key_pos),
            -position,
        )

    # ------------------------------------------------------------------
    # Overlay interface
    # ------------------------------------------------------------------

    def node_ids(self) -> Collection[NodeId]:
        return self._id_of.keys()

    def neighbors(self, node_id: NodeId) -> Iterable[NodeId]:
        """Routing-table representatives plus the leaf set.

        The routing table holds, per (prefix row ``l``, digit ``d``), one
        representative member that shares exactly ``l`` leading digits
        with this node and has digit ``d`` at position ``l`` (the
        numerically closest such member, as a proximity stand-in).  The
        leaf set holds the two nearest members by identifier on each
        side.  Together these are the nodes this one forwards through in
        the common case; rare fallback hops (§ module docstring) may use
        other members, as real Pastry does via its neighborhood set.
        """
        position = self._id_of[node_id]
        out: Set[NodeId] = set()
        if len(self._members) > 1:
            index = self._members.index((position, node_id))
            for offset in (-2, -1, 1, 2):
                peer = self._members[(index + offset) % len(self._members)][1]
                if peer != node_id:
                    out.add(peer)
        best: Dict[Tuple[int, int], Tuple[int, NodeId]] = {}
        for other_pos, other_id in self._members:
            if other_id == node_id:
                continue
            row = self.shared_prefix(position, other_pos)
            if row >= self.digits:
                continue
            shift = (self.digits - 1 - row) * DIGIT_BITS
            digit = (other_pos >> shift) & 0xF
            distance = self._circular_distance(position, other_pos)
            slot = (row, digit)
            if slot not in best or distance < best[slot][0]:
                best[slot] = (distance, other_id)
        out.update(entry for _, entry in best.values())
        return out

    def _ring_candidates(self, key_pos: int) -> Tuple[int, int, int]:
        """(index of predecessor, index of successor, member count).

        Predecessor/successor of ``key_pos`` in circular sorted-position
        order (successor inclusive of an exact match).  Any contiguous
        candidate interval around the key attains its affinity maximum at
        one of these two members (see module docstring), which is what
        lets routing decisions avoid the full-membership scan.
        """
        positions, _ = self._sorted_tables()
        n = len(positions)
        index = bisect.bisect_left(positions, key_pos)
        return (index - 1) % n, index % n, n

    def _compute_authority(self, key: str) -> NodeId:
        if not self._members:
            raise RoutingError("empty overlay")
        key_pos = self.key_position(key)
        positions, ids = self._sorted_tables()
        pred, succ, _ = self._ring_candidates(key_pos)
        best_index = pred
        if succ != pred and (
            self._affinity(positions[succ], key_pos)
            > self._affinity(positions[pred], key_pos)
        ):
            best_index = succ
        return ids[best_index]

    def _compute_next_hop(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        position = self._id_of.get(node_id)
        if position is None:
            raise RoutingError(f"node {node_id!r} is not a member")
        key_pos = self.key_position(key)
        positions, ids = self._sorted_tables()
        pred, succ, n = self._ring_candidates(key_pos)
        if n == 1:
            return None  # alone: this node owns everything

        # The global affinity maximum (the authority) is pred or succ;
        # if it is this node, the route terminates here.
        best_index = pred
        if succ != pred and (
            self._affinity(positions[succ], key_pos)
            > self._affinity(positions[pred], key_pos)
        ):
            best_index = succ
        if positions[best_index] == position:
            return None

        # Nearest members on each side of the key *excluding* this node:
        # every candidate subset that matters (longer-prefix block, full
        # membership) is a contiguous interval around the key, so its
        # affinity maximum is one of these two.
        if positions[pred] == position:
            pred = (pred - 1) % n
        if positions[succ] == position:
            succ = (succ + 1) % n
        candidates = (pred,) if succ == pred else (pred, succ)

        my_prefix = self.shared_prefix(position, key_pos)
        best_prefix_hop: Optional[Tuple[Tuple[int, int, int], int]] = None
        best_overall: Optional[Tuple[Tuple[int, int, int], int]] = None
        for index in candidates:
            affinity = self._affinity(positions[index], key_pos)
            if best_overall is None or affinity > best_overall[0]:
                best_overall = (affinity, index)
            if affinity[0] > my_prefix and (
                best_prefix_hop is None or affinity > best_prefix_hop[0]
            ):
                best_prefix_hop = (affinity, index)
        if best_prefix_hop is not None:
            return ids[best_prefix_hop[1]]
        # No longer-prefix member exists; move strictly up the affinity
        # order (numerically closer at the same prefix length).
        return ids[best_overall[1]]

    # ------------------------------------------------------------------
    # Reference (specification) routing — full-membership scans
    # ------------------------------------------------------------------

    def _affinity_reference(self, position: int, key_pos: int) -> Tuple[int, int, int]:
        """Affinity with the per-digit prefix loop (pre-fast-path form)."""
        shared = 0
        for i in range(self.digits):
            shift = (self.digits - 1 - i) * DIGIT_BITS
            if (position >> shift) & 0xF != (key_pos >> shift) & 0xF:
                break
            shared += 1
        return (
            shared,
            -self._circular_distance(position, key_pos),
            -position,
        )

    def authority_reference(self, key: str) -> NodeId:
        """The specification: affinity maximum over every member."""
        if not self._members:
            raise RoutingError("empty overlay")
        key_pos = hash_to_int(key, self.bits, salt="pastry-key")
        return max(
            self._members,
            key=lambda member: self._affinity_reference(member[0], key_pos),
        )[1]

    def next_hop_reference(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        """The specification: scan every member per routing decision."""
        position = self._id_of.get(node_id)
        if position is None:
            raise RoutingError(f"node {node_id!r} is not a member")
        key_pos = hash_to_int(key, self.bits, salt="pastry-key")
        my_affinity = self._affinity_reference(position, key_pos)
        my_prefix = my_affinity[0]

        # Prefix hop: the closest member sharing at least one more digit.
        best_prefix_hop: Optional[Tuple[Tuple[int, int, int], NodeId]] = None
        # Fallback: the best-affinity member overall.
        best_overall: Tuple[Tuple[int, int, int], NodeId] = (my_affinity, node_id)
        for other_pos, other_id in self._members:
            if other_id == node_id:
                continue
            affinity = self._affinity_reference(other_pos, key_pos)
            if affinity > best_overall[0]:
                best_overall = (affinity, other_id)
            if affinity[0] > my_prefix:
                if best_prefix_hop is None or affinity > best_prefix_hop[0]:
                    best_prefix_hop = (affinity, other_id)
        if best_overall[1] == node_id:
            return None  # this node is the affinity maximum: the authority
        if best_prefix_hop is not None:
            return best_prefix_hop[1]
        # No longer-prefix member exists; move strictly up the affinity
        # order (numerically closer at the same prefix length).
        return best_overall[1]
