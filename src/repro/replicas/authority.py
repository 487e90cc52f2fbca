"""The local index directory of an authority node (§2.1).

Every node owns the slice of the global index that hashes into its zone;
the (key, value) entries in that slice form its *local index directory*,
disjoint from the entries it caches for keys it does not own.  This module
keeps that directory and turns replica control messages into the update
messages CUP propagates:

=============  ==================  ===============================
replica event  directory change    update propagated downstream
=============  ==================  ===============================
birth          entry inserted      APPEND (new replica available)
refresh        lifetime re-based   REFRESH (extends cached copies)
death          entry removed       DELETE (purge cached copies)
expiry sweep   entry removed       DELETE (failure detected)
=============  ==================  ===============================

Sequence numbers increase per (key, replica) so downstream caches can
discard stale or reordered updates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cache import NO_ITEMS
from repro.core.entry import IndexEntry
from repro.core.messages import ReplicaEvent, ReplicaMessage, UpdateMessage, UpdateType


class AuthorityIndex:
    """The index entries a node owns, grouped by key."""

    __slots__ = ("_entries", "_sequences")

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, IndexEntry]] = {}
        self._sequences: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def keys(self) -> Iterable[str]:
        """All keys with at least one live entry."""
        return self._entries.keys()

    def owns(self, key: str) -> bool:
        return key in self._entries

    def entries(self, key: str) -> List[IndexEntry]:
        """All directory entries for ``key`` (may include expired ones
        between sweeps; freshness is re-checked at answer time)."""
        return list(self._entries.get(key, {}).values())

    def fresh_entries(self, key: str, now: float) -> List[IndexEntry]:
        """Directory entries for ``key`` still fresh at ``now``."""
        return [
            e for e in self._entries.get(key, {}).values() if e.is_fresh(now)
        ]

    def entry_count(self) -> int:
        return sum(len(v) for v in self._entries.values())

    # ------------------------------------------------------------------
    # Replica events -> updates
    # ------------------------------------------------------------------

    def _next_sequence(self, key: str, replica_id: str) -> int:
        seq = self._sequences.get((key, replica_id), 0) + 1
        self._sequences[(key, replica_id)] = seq
        return seq

    def apply_replica_message(
        self, message: ReplicaMessage, now: float
    ) -> Optional[UpdateMessage]:
        """Apply a replica control message; return the update to push.

        Returns ``None`` when nothing propagates (e.g. a deletion for an
        already-absent entry).
        """
        if message.event == ReplicaEvent.DEATH:
            return self.remove(message.key, message.replica_id, now)
        per_key = self._entries.setdefault(message.key, {})
        existed = message.replica_id in per_key
        entry = IndexEntry(
            key=message.key,
            replica_id=message.replica_id,
            address=message.address,
            lifetime=message.lifetime,
            timestamp=now,
            sequence=self._next_sequence(message.key, message.replica_id),
        )
        per_key[message.replica_id] = entry
        # A birth of a known replica (duplicate announcement) degenerates
        # to a refresh; a refresh from an unknown replica (entry expired
        # and was swept) re-announces it as an append.
        update_type = UpdateType.REFRESH if existed else UpdateType.APPEND
        return UpdateMessage(
            key=message.key,
            update_type=update_type,
            entries=(entry,),
            replica_id=message.replica_id,
            issued_at=now,
        )

    def remove(
        self, key: str, replica_id: str, now: float
    ) -> Optional[UpdateMessage]:
        """Remove an entry (death or failure); return the DELETE update."""
        per_key = self._entries.get(key)
        if not per_key:
            return None
        entry = per_key.pop(replica_id, None)
        if entry is None:
            return None
        if not per_key:
            del self._entries[key]
        return UpdateMessage(
            key=key,
            update_type=UpdateType.DELETE,
            entries=(entry,),
            replica_id=replica_id,
            issued_at=now,
        )

    def sweep_expired(self, now: float) -> List[UpdateMessage]:
        """Failure detection: drop entries whose replicas went silent.

        The authority "notices a replica has stopped sending keep-alive
        messages and assumes the replica has failed" (§2.4); each swept
        entry yields a DELETE update for interested neighbors.
        """
        deletes: List[UpdateMessage] = []
        for key in list(self._entries):
            per_key = self._entries[key]
            for replica_id in [
                rid for rid, e in per_key.items() if not e.is_fresh(now)
            ]:
                update = self.remove(key, replica_id, now)
                if update is not None:
                    deletes.append(update)
        return deletes

    # ------------------------------------------------------------------
    # Churn handover (§2.9)
    # ------------------------------------------------------------------

    def extract_keys(self, keys: Iterable[str]) -> Dict[str, Dict[str, IndexEntry]]:
        """Remove and return the directory slices for ``keys``.

        Used when a joining node takes over part of this node's index,
        or when a departing node hands its directory to a neighbor.
        """
        extracted: Dict[str, Dict[str, IndexEntry]] = {}
        for key in list(keys):
            per_key = self._entries.pop(key, None)
            if per_key:
                extracted[key] = per_key
        return extracted

    # ------------------------------------------------------------------
    # Durable slices (live-node persistence)
    # ------------------------------------------------------------------

    def export_slice(self, pairs) -> dict:
        """The directory of each key in the ``(key, replica_id)`` pairs
        (``None``: no entry left) and the sequence counter of each pair
        that has one — what the node store appends for a tick's dirty
        keys."""
        entries, sequences = self._entries, self._sequences
        return {
            "entries": {key: entries.get(key) for key, _ in pairs},
            "sequences": {
                pair: sequences[pair] for pair in pairs if pair in sequences
            },
        }

    def install_slice(self, exported: dict) -> None:
        """Replay an :meth:`export_slice` over this index."""
        for key, per_key in exported["entries"].items():
            if per_key:
                self._entries[key] = per_key
            elif key in self._entries:
                del self._entries[key]
        if exported["sequences"]:
            self._sequences.update(exported["sequences"])

    def absorb(self, slices: Dict[str, Dict[str, IndexEntry]]) -> int:
        """Merge handed-over directory slices, deduplicating by sequence.

        Returns the number of entries accepted.  When both sides hold an
        entry for the same (key, replica), the newer sequence wins — the
        paper's "eliminating duplicate entries" merge.
        """
        accepted = 0
        for key, per_key in slices.items():
            mine = self._entries.setdefault(key, {})
            for replica_id, entry in per_key.items():
                current = mine.get(replica_id)
                if current is None or current.sequence < entry.sequence:
                    mine[replica_id] = entry
                    accepted += 1
                seq_key = (key, replica_id)
                self._sequences[seq_key] = max(
                    self._sequences.get(seq_key, 0), entry.sequence
                )
        return accepted


class _NoAuthority(AuthorityIndex):
    """The type of :data:`NO_AUTHORITY`: empty, and refusing writes."""

    __slots__ = ()

    def __init__(self) -> None:
        self._entries = self._sequences = NO_ITEMS

    def __reduce__(self):
        # Pickled by name: a checkpoint or node store round trip hands
        # back the one shared object, never a writable copy of it.
        return "NO_AUTHORITY"


#: The authority index of every node that owns no key (see the
#: shared-empties rule in :mod:`repro.core.cache`).
NO_AUTHORITY: AuthorityIndex = _NoAuthority()
