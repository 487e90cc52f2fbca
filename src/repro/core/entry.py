"""Index entries: the unit of content location state.

An index entry is a (key, value) pair where the value points to a replica
serving the content associated with the key (§2.1 of the paper).  Every
entry cached away from its authority node carries a *lifetime* and the
*timestamp* at which the lifetime was set; once ``now - timestamp``
exceeds the lifetime the entry has expired and must not be used to answer
queries.
"""

from __future__ import annotations

from typing import Optional


class IndexEntry:
    """One pointer from a key to a replica serving its content.

    Parameters
    ----------
    key:
        The content key this entry indexes.
    replica_id:
        Identifier of the replica this entry points at.  There can be
        several entries for the same key, one per replica.
    address:
        The location value (the paper: "typically an IP address").
    lifetime:
        Seconds of validity from ``timestamp``.
    timestamp:
        Simulation time at which the lifetime was set (issue/refresh time).
    sequence:
        Version counter assigned by the authority node; strictly increases
        across refreshes of the same (key, replica).  Lets caches discard
        out-of-order updates that long network delays can produce (§2.6
        case 3).
    """

    __slots__ = ("key", "replica_id", "address", "lifetime", "timestamp", "sequence")

    def __init__(
        self,
        key: str,
        replica_id: str,
        address: str,
        lifetime: float,
        timestamp: float,
        sequence: int = 0,
    ):
        if not lifetime > 0:
            raise ValueError(f"lifetime must be positive, got {lifetime}")
        self.key = key
        self.replica_id = replica_id
        self.address = address
        self.lifetime = lifetime
        self.timestamp = timestamp
        self.sequence = sequence

    @property
    def expires_at(self) -> float:
        """Absolute simulation time at which this entry stops being fresh."""
        return self.timestamp + self.lifetime

    def is_fresh(self, now: float) -> bool:
        """Whether the entry may still be used to answer queries.

        Phrased as ``now < timestamp + lifetime`` so it is float-exact
        against :attr:`expires_at` — every expiry comparison in the
        system (message expiry precomputation, queue elimination, cache
        gc) reduces to the same ``expires_at`` arithmetic and can never
        disagree at a rounding boundary.
        """
        return now < self.timestamp + self.lifetime

    def remaining(self, now: float) -> float:
        """Seconds of freshness left (negative once expired)."""
        return self.expires_at - now

    def refreshed(self, timestamp: float, lifetime: Optional[float] = None,
                  sequence: Optional[int] = None) -> "IndexEntry":
        """A copy of this entry with its lifetime re-based at ``timestamp``."""
        return IndexEntry(
            key=self.key,
            replica_id=self.replica_id,
            address=self.address,
            lifetime=self.lifetime if lifetime is None else lifetime,
            timestamp=timestamp,
            sequence=self.sequence + 1 if sequence is None else sequence,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexEntry):
            return NotImplemented
        return (
            self.key == other.key
            and self.replica_id == other.replica_id
            and self.address == other.address
            and self.lifetime == other.lifetime
            and self.timestamp == other.timestamp
            and self.sequence == other.sequence
        )

    def __hash__(self) -> int:
        return hash((self.key, self.replica_id, self.sequence))

    def __repr__(self) -> str:
        return (
            f"IndexEntry({self.key!r}, replica={self.replica_id!r}, "
            f"t={self.timestamp:g}, ttl={self.lifetime:g}, seq={self.sequence})"
        )
