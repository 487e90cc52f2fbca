"""Per-node, per-key CUP bookkeeping (§2.3 of the paper).

At each node, index entries are grouped by key.  For every key a node has
seen, it keeps:

* the cached index entries themselves (disjoint from the node's local
  index directory — authority-owned entries live in
  :class:`repro.replicas.authority.AuthorityIndex`);
* a Pending-First-Update flag that coalesces query bursts;
* an interest bit vector — here a tuple of neighbor ids, sorted by
  ``str`` so it is the update fan-out order itself — recording which
  neighbors want updates;
* the number of open local client connections awaiting an answer;
* a popularity measure (queries since the last cut-off-relevant update);
* per-key mutable state for the cut-off policy (e.g. second-chance
  strikes);
* a cached upstream parent (the overlay next hop), hop distance and
  am-I-the-authority bit, each invalidated by overlay epoch bumps after
  churn.

The paper notes this bookkeeping "involves no network overhead" and is
negligible next to the query-latency savings; accordingly nothing in this
module touches the transport.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.core.entry import IndexEntry
from repro.sim.network import NodeId

#: What ``interest`` / ``waiting`` hold while they hold nothing.  Both
#: are immutable tuples kept sorted by ``str`` — the deterministic
#: fan-out order — so every change binds a new tuple, and an empty one
#: is the empty tuple: no private container to share.
NO_NEIGHBORS: tuple = ()

#: What ``justification_deadlines`` holds while it holds nothing.  A
#: key owes no justification most of the time, so a private list per
#: key would be the bulk of what an idle key costs.  One immutable empty
#: is shared instead: the first add swaps in a private ``list`` and
#: settling swaps the empty back.  Always test this attribute by truth,
#: never by identity: a pickled state restores with an empty of its own.
NO_DEADLINES: Sequence[float] = ()


def with_neighbor(neighbors: tuple, neighbor: NodeId) -> tuple:
    """``neighbors`` (``str``-sorted, no duplicates) plus ``neighbor``."""
    if not neighbors:
        return (neighbor,)
    if neighbor in neighbors:
        return neighbors
    at = bisect_left(neighbors, str(neighbor), key=str)
    return neighbors[:at] + (neighbor,) + neighbors[at:]


class _EmptyDict(dict):
    """A dict that stays empty: every way of adding to it raises.

    (``types.MappingProxyType`` would do, but it does not pickle, and
    these travel in checkpoints and ``NodeStore`` snapshots.)
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(
            "the shared empty dict is read-only; bind a private dict "
            "where this attribute is first written"
        )

    __setitem__ = setdefault = update = __ior__ = _refuse


#: The rule of ``NO_DEADLINES`` one level up, for the dicts a *node*
#: owns: channel queues, the authority directory, refresh buffers.  Only
#: a rate-limited, authority or aggregating node ever fills them, so
#: every node starts on this one empty and binds a private ``dict`` at
#: the one place each attribute is first written — tested by truth
#: there, for the reason above.
NO_ITEMS: Dict[Any, Any] = _EmptyDict()


class KeyState:
    """Everything one node tracks about one non-local key."""

    __slots__ = (
        "key",
        "entries",
        "pending_first_update",
        "pending_since",
        "interest",
        "waiting",
        "local_waiters",
        "popularity",
        "policy_state",
        "parent",
        "parent_epoch",
        "distance",
        "distance_epoch",
        "is_authority_here",
        "authority_epoch",
        "designated_replica",
        "clear_bit_sent",
        "justification_deadlines",
        "min_expires",
        "max_expires",
    )

    #: Cap on retained justification windows per key; refreshes arrive at
    #: most once per lifetime per replica, so this never truncates in
    #: practice — it is a guard against pathological configurations.
    MAX_JUSTIFICATION_WINDOWS = 64

    def __init__(self, key: str):
        self.key = key
        self.entries: Dict[str, IndexEntry] = {}
        self.pending_first_update = False
        self.pending_since = 0.0
        # Interested neighbors, str-sorted: the fan-out order itself.
        self.interest: tuple = NO_NEIGHBORS
        # Neighbors owed a first-time response: the subset of `interest`
        # whose queries were coalesced behind the current PFU.  First-time
        # updates fan out to these; maintenance updates fan out to all of
        # `interest`.  Keeping them separate prevents a response from
        # being broadcast to long-subscribed neighbors that asked nothing.
        # Sorted the same way.
        self.waiting: tuple = NO_NEIGHBORS
        self.local_waiters = 0
        self.popularity = 0
        self.policy_state: Any = None
        self.parent: Optional[NodeId] = None
        self.parent_epoch = -1
        self.distance = -1
        self.distance_epoch = -1
        # Whether the owning node is this key's authority, per overlay
        # epoch: the query fast path answers "am I the authority?" from
        # here without re-entering the overlay (node.py's hot path).
        self.is_authority_here = False
        self.authority_epoch = -1
        self.designated_replica: Optional[str] = None
        self.clear_bit_sent = False
        self.justification_deadlines: Sequence[float] = NO_DEADLINES
        # Conservative lower bound on the earliest entry expiration: the
        # gc sweep skips the per-entry scan entirely while the clock has
        # not reached it.  Maintained on entry application (replacing
        # one of several entries can only leave the bound stale-low,
        # never stale-high, so a false positive costs one scan, never a
        # missed purge; replacing the only entry sets it exactly); the
        # gc scan itself re-tightens it.
        self.min_expires = float("inf")
        # Exact latest entry expiration (-inf when empty): has_fresh —
        # evaluated on every query and every response-readiness check —
        # is a single comparison against it instead of an entry walk.
        # Kept exact by apply/remove/purge (removal of the maximal entry
        # triggers a recompute; expired-only purges cannot remove it
        # while it is still ahead of the clock).
        self.max_expires = float("-inf")

    # ------------------------------------------------------------------
    # Entry freshness
    # ------------------------------------------------------------------

    def fresh_entries(self, now: float) -> List[IndexEntry]:
        """The cached entries still usable to answer queries at ``now``."""
        return [e for e in self.entries.values() if e.is_fresh(now)]

    def has_fresh(self, now: float) -> bool:
        """Whether at least one cached entry is fresh (§2.5 case 1)."""
        return now < self.max_expires

    def all_expired(self, now: float) -> bool:
        """Whether the key is cached but unusable (§2.5 case 3)."""
        return bool(self.entries) and not self.has_fresh(now)

    def purge_expired(self, now: float) -> int:
        """Drop expired entries; returns how many were removed."""
        stale = [rid for rid, e in self.entries.items() if not e.is_fresh(now)]
        for rid in stale:
            del self.entries[rid]
        if stale:
            self._recompute_expiry_bounds()
        return len(stale)

    def _recompute_expiry_bounds(self) -> None:
        """Re-derive min/max entry expirations after entry removal."""
        min_expires = float("inf")
        max_expires = float("-inf")
        for entry in self.entries.values():
            expires = entry.timestamp + entry.lifetime
            if expires < min_expires:
                min_expires = expires
            if expires > max_expires:
                max_expires = expires
        self.min_expires = min_expires
        self.max_expires = max_expires

    def apply_entry(self, entry: IndexEntry) -> bool:
        """Insert or refresh one entry, respecting sequence numbers.

        Returns ``False`` when the cache already holds a same-or-newer
        version for that replica (an out-of-order or duplicate update),
        ``True`` when the entry was stored.

        NOTE: the single-entry hot path in ``CupNode._handle_update``
        inlines this method (sequence guard + expiry-bound
        maintenance); semantic changes here must be mirrored there.
        """
        current = self.entries.get(entry.replica_id)
        if current is not None and current.sequence >= entry.sequence:
            return False
        self.entries[entry.replica_id] = entry
        expires = entry.timestamp + entry.lifetime
        if current is not None and len(self.entries) == 1:
            # The entry replaced was the only one, so both bounds are
            # the new expiry exactly.  A refresh is a replacement: left
            # to the rule below, one entry per key refreshed once per
            # gc interval keeps min_expires a lifetime behind and the
            # sweep's skip never fires.
            self.min_expires = self.max_expires = expires
            return True
        if (
            current is not None
            and expires < current.timestamp + current.lifetime
        ):
            # A replacement that *shrinks* the expiry (a refresh always
            # extends it, so this is a theoretical path): the replaced
            # entry may have carried the max bound — re-derive both.
            self._recompute_expiry_bounds()
            return True
        if expires < self.min_expires:
            self.min_expires = expires
        if expires > self.max_expires:
            self.max_expires = expires
        return True

    def remove_entry(self, replica_id: str) -> bool:
        """Delete the entry for ``replica_id`` if present."""
        if self.entries.pop(replica_id, None) is None:
            return False
        self._recompute_expiry_bounds()
        return True

    # ------------------------------------------------------------------
    # Interest bookkeeping
    # ------------------------------------------------------------------

    def register_interest(self, neighbor: NodeId) -> None:
        """Set the neighbor's interest bit (it asked about this key)."""
        self.interest = with_neighbor(self.interest, neighbor)

    def clear_interest(self, neighbor: NodeId) -> bool:
        """Clear the neighbor's interest bit; True if it was set."""
        interest = self.interest
        if neighbor in interest:
            self.interest = tuple(n for n in interest if n != neighbor)
            return True
        return False

    def clear_all_interest(self) -> None:
        """Drop every interest bit (standard caching after a response)."""
        self.interest = NO_NEIGHBORS

    def drop_departed_neighbors(self, alive: Set[NodeId]) -> None:
        """Patch the bit vector after churn (§2.9): keep only live nodes."""
        if self.interest:
            self.interest = tuple(n for n in self.interest if n in alive)
        if self.waiting:
            self.waiting = tuple(n for n in self.waiting if n in alive)

    # ------------------------------------------------------------------
    # Justification accounting (§3.1)
    # ------------------------------------------------------------------

    def record_justification_window(self, deadline: float) -> None:
        """Remember that an update applied here must see a query by
        ``deadline`` to be justified."""
        deadlines = self.justification_deadlines
        if not deadlines:
            self.justification_deadlines = [deadline]
        elif len(deadlines) < self.MAX_JUSTIFICATION_WINDOWS:
            deadlines.append(deadline)

    def settle_justification(self, now: float) -> tuple[int, int]:
        """Resolve pending windows against a query arriving at ``now``.

        Returns ``(justified, unjustified)``: windows still open at
        ``now`` are justified by this query; windows that closed before
        ``now`` went unjustified.
        """
        justified = 0
        unjustified = 0
        for deadline in self.justification_deadlines:
            if deadline >= now:
                justified += 1
            else:
                unjustified += 1
        self.justification_deadlines = NO_DEADLINES
        return justified, unjustified

    def expire_justification(self, now: float) -> int:
        """Count (and drop) windows that closed before ``now`` unseen."""
        deadlines = self.justification_deadlines
        expired = 0
        for deadline in deadlines:
            if deadline >= now:
                break
            expired += 1
        if expired:
            # A list, not a deque: with at most MAX_JUSTIFICATION_WINDOWS
            # items the front delete costs nothing, and one window is
            # 64 B where a deque is 760.
            del deadlines[:expired]
        return expired

    # ------------------------------------------------------------------
    # Invariant support
    # ------------------------------------------------------------------

    def audit_consistency(self) -> List[str]:
        """Structural self-check; returns problem descriptions (or []).

        Consumed by the runtime invariant checker: these are properties
        of the data structure itself (indexing, counters, flag/waiter
        coupling), independent of protocol semantics and of the clock,
        and must hold at every simulation instant.
        """
        problems: List[str] = []
        for replica_id, entry in self.entries.items():
            if entry.replica_id != replica_id:
                problems.append(
                    f"key {self.key!r}: entry indexed under "
                    f"{replica_id!r} names replica {entry.replica_id!r}"
                )
            if entry.key != self.key:
                problems.append(
                    f"key {self.key!r}: cached entry belongs to key "
                    f"{entry.key!r}"
                )
        if self.local_waiters < 0:
            problems.append(
                f"key {self.key!r}: negative local waiter count "
                f"{self.local_waiters}"
            )
        for name in ("interest", "waiting"):
            # The fan-out order, and what a set guaranteed: no repeats.
            neighbors = getattr(self, name)
            names = [str(n) for n in neighbors]
            if type(neighbors) is not tuple or names != sorted(set(names)):
                problems.append(
                    f"key {self.key!r}: {name} {neighbors!r} is not a "
                    f"strictly str-sorted tuple"
                )
        # Note: ``waiting <= interest`` is deliberately NOT checked — a
        # cut-off can race an outstanding coalesced query (the child
        # clears its bit upstream while the parent still owes it a
        # response), and the parent's ``waiting`` entry legitimately
        # outlives the interest bit so the starved-response rescue in
        # node.py can still answer the querier.
        return problems

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def is_discardable(self, now: float) -> bool:
        """Whether the state carries no information worth keeping.

        True when every entry has expired and nothing is pending: no
        interested neighbor, no waiting local client, no outstanding
        upstream query.
        """
        return (
            not self.pending_first_update
            and not self.interest
            and not self.waiting
            and self.local_waiters == 0
            and not self.has_fresh(now)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyState({self.key!r}, entries={len(self.entries)}, "
            f"pfu={self.pending_first_update}, interest={len(self.interest)}, "
            f"pop={self.popularity})"
        )


class NodeCache:
    """All per-key CUP state held by one node.

    Thin dict wrapper; it exists so garbage collection, churn patching
    and statistics have one owner, and so the node logic reads naturally
    (``cache.get_or_create(key)``).
    """

    __slots__ = ("states",)

    def __init__(self) -> None:
        self.states: Dict[str, KeyState] = {}

    def get(self, key: str) -> Optional[KeyState]:
        return self.states.get(key)

    def get_or_create(self, key: str) -> KeyState:
        state = self.states.get(key)
        if state is None:
            state = KeyState(key)
            self.states[key] = state
        return state

    def discard(self, key: str) -> None:
        self.states.pop(key, None)

    def gc(self, now: float) -> int:
        """Drop expired entries and stateless keys; returns keys removed.

        Run periodically by long simulations to bound memory; correctness
        never depends on it because freshness is always checked at use.
        The sweep visits every node each tick — O(N·keys) per tick at
        network scale — so the purge and discard checks are inlined here
        rather than paying two method frames per key.  After the purge
        every surviving entry is fresh, so ``has_fresh`` reduces to
        ``bool(entries)`` and :meth:`KeyState.is_discardable` to the flag
        checks below.
        """
        removed = None
        inf = float("inf")
        for key, state in self.states.items():
            entries = state.entries
            if entries:
                if now < state.min_expires:
                    # Provably nothing to purge, and a state with fresh
                    # entries is never discardable: skip the scan.
                    continue
                stale = None
                min_expires = inf
                max_expires = -inf
                for rid, e in entries.items():
                    expires = e.timestamp + e.lifetime
                    if expires <= now:
                        if stale is None:
                            stale = [rid]
                        else:
                            stale.append(rid)
                    else:
                        if expires < min_expires:
                            min_expires = expires
                        if expires > max_expires:
                            max_expires = expires
                if stale is not None:
                    for rid in stale:
                        del entries[rid]
                state.min_expires = min_expires
                state.max_expires = max_expires
                if entries:
                    continue
            if not (
                state.pending_first_update
                or state.interest
                or state.waiting
                or state.local_waiters
            ):
                if removed is None:
                    removed = [key]
                else:
                    removed.append(key)
        if removed is None:
            return 0
        for key in removed:
            del self.states[key]
        return len(removed)

    def patch_interest_after_churn(self, alive: Set[NodeId]) -> None:
        """§2.9: drop departed neighbors from every interest bit vector."""
        for state in self.states.values():
            state.drop_departed_neighbors(alive)

    def audit_consistency(self) -> List[str]:
        """Structural problems across every key's state (see KeyState)."""
        problems: List[str] = []
        for key, state in self.states.items():
            if state.key != key:
                problems.append(
                    f"state for key {state.key!r} indexed under {key!r}"
                )
            problems.extend(state.audit_consistency())
        return problems

    def __iter__(self) -> Iterator[KeyState]:
        return iter(self.states.values())

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, key: str) -> bool:
        return key in self.states
