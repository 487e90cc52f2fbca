"""Durable state for a *live* CUP node: warm rejoin from disk.

A :class:`~repro.net.daemon.LiveNode` dies stateless by default — a
restart rejoins cold, its cached index entries, interest sets and
recovery watermarks gone.  This module gives the daemon the same
crash-durability the simulator got from the PR-8 checkpoint layer, with
the same discipline:

* **One file, always complete.**  Snapshots go through
  :func:`~repro.persistence.checkpoint.atomic_write` (temp file +
  ``os.replace``), so ``<state-dir>/node.state`` always holds the last
  *complete* snapshot; a ``kill -9`` mid-write cannot corrupt it.
* **Format + fingerprint gates.**  The blob is the checkpoint layer's
  container (:func:`~repro.persistence.checkpoint.pack`: a one-line
  JSON header stamped with format version and code fingerprint, then a
  pickle payload) carrying the node identity in its header; loads fail
  loudly on version skew, fingerprint skew, or a state file that
  belongs to a different node identity or mode — the existing
  :class:`~repro.persistence.checkpoint.CheckpointFormatError` /
  :class:`~repro.persistence.checkpoint.FingerprintMismatch` hierarchy.

What a snapshot holds is deliberately *not* the whole daemon (an asyncio
object graph does not pickle, and most of it is legitimately volatile):

========================  =============================================
persisted                 why a restart must not forget it
========================  =============================================
cache (entries+interest)  serve local hits immediately after rejoin;
                          know which keys to re-graft upstream
authority index           the owned index slice and its per-replica
                          sequence counters (restarting them at 1 would
                          make fresh updates look stale downstream)
member list               who to dial and re-``hello`` at boot
recovery watermarks       send/receive sequence state (see
                          :meth:`~repro.core.recovery.RecoveryManager.
                          export_state`)
========================  =============================================

Volatile state — open client connections, pending-first-update flags,
armed timers, retransmission buffers — is scrubbed by
:func:`sanitize_restored` at load: those all died with the process, and
pretending otherwise would leave a restored node waiting on answers
nobody owes it.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Tuple

from repro.core.cache import NO_DEADLINES, NO_NEIGHBORS
from repro.persistence.checkpoint import (
    CheckpointFormatError,
    atomic_write,
    pack,
    peek_header,
    unpack,
)

MAGIC = b"CUPNODE\n"
_KIND = "node state"

#: The single state file inside a node's ``--state-dir``.
STATE_FILENAME = "node.state"

#: Default write-behind cadence (seconds) when a state dir is configured
#: without one: frequent enough that a kill loses at most a few seconds
#: of update traffic, cheap enough to forget (one pickle of one node's
#: cache, not a network).
DEFAULT_SNAPSHOT_INTERVAL = 5.0


@dataclasses.dataclass
class NodeState:
    """The plain-data slice of a live node that survives a restart."""

    node_id: str
    mode: str
    members: Tuple[str, ...]
    cache: object  # repro.core.cache.NodeCache
    authority: object  # repro.replicas.authority.AuthorityIndex
    recovery: Optional[dict]  # RecoveryManager.export_state() or None
    saved_at: float


# ----------------------------------------------------------------------
# Capture / restore (object <-> plain state)
# ----------------------------------------------------------------------


def capture_state(daemon) -> NodeState:
    """Extract the durable slice of a running daemon.

    Duck-typed over the daemon surface (``node_id``, ``members``,
    ``config.mode``, ``clock.now`` and the hosted ``node``), so tests
    can capture from a stub without standing up sockets.  Never mutates
    the daemon.
    """
    node = daemon.node
    recovery = node.recovery
    return NodeState(
        node_id=daemon.node_id,
        mode=daemon.config.mode,
        members=tuple(sorted(daemon.members)),
        cache=node.cache,
        authority=node.authority_index,
        recovery=None if recovery is None else recovery.export_state(),
        saved_at=daemon.clock.now,
    )


def sanitize_restored(state: NodeState, now: float) -> int:
    """Scrub volatile bits from a loaded snapshot; return keys kept.

    Pending-first-update flags, local waiters and coalesced-response
    sets all referred to connections and timers that died with the old
    process; overlay memos (parent/distance/authority epochs) belong to
    an overlay that will be rebuilt from the rejoined membership.
    Expired entries are purged, and key states left with nothing worth
    keeping are dropped outright.
    """
    cache = state.cache
    for key in list(cache.states):
        key_state = cache.states[key]
        key_state.pending_first_update = False
        key_state.pending_since = 0.0
        key_state.local_waiters = 0
        key_state.waiting = NO_NEIGHBORS
        key_state.justification_deadlines = NO_DEADLINES
        key_state.parent_epoch = -1
        key_state.distance_epoch = -1
        key_state.authority_epoch = -1
        key_state._interest_sorted = None
        key_state.purge_expired(now)
        if key_state.is_discardable(now):
            del cache.states[key]
    return len(cache.states)


# ----------------------------------------------------------------------
# Blob format (the checkpoint container with a CUPNODE header)
# ----------------------------------------------------------------------


def state_to_blob(state: NodeState) -> bytes:
    """Serialize one :class:`NodeState` with the CUPNODE header."""
    header = {
        "node_id": state.node_id,
        "mode": state.mode,
        "saved_at": state.saved_at,
        "members": len(state.members),
        "keys": len(state.cache.states),
    }
    return pack(MAGIC, header, state)


def state_from_blob(
    blob: bytes, verify_fingerprint: bool = True, path=None
) -> NodeState:
    """Inverse of :func:`state_to_blob`, with the load gates applied."""
    _, state = unpack(blob, MAGIC, _KIND, verify_fingerprint, path)
    if not isinstance(state, NodeState):
        where = f" in {os.fspath(path)}" if path is not None else ""
        raise CheckpointFormatError(
            f"node state payload{where} is a "
            f"{type(state).__name__}, not a NodeState"
        )
    return state


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class NodeStore:
    """Write-behind store for one daemon's durable state.

    One directory, one ``node.state`` file, atomic replacement on every
    save.  The daemon saves on a cadence and on graceful stop; at boot
    it loads (if a file exists) and warm-rejoins.
    """

    def __init__(self, state_dir, verify_fingerprint: bool = True):
        self.state_dir = os.fspath(state_dir)
        self.path = os.path.join(self.state_dir, STATE_FILENAME)
        self.verify_fingerprint = verify_fingerprint
        self.saves = 0

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, daemon) -> str:
        """Capture and atomically persist ``daemon``'s durable state."""
        blob = state_to_blob(capture_state(daemon))
        atomic_write(self.path, blob, prefix=".nodestate-")
        self.saves += 1
        return self.path

    def load(
        self,
        expect_node_id: Optional[str] = None,
        expect_mode: Optional[str] = None,
    ) -> Optional[NodeState]:
        """The stored state, or ``None`` when no snapshot exists yet.

        ``expect_node_id`` / ``expect_mode`` guard against pointing a
        daemon at some *other* node's state dir: ids double as dialable
        addresses, so adopting another identity's cache and watermarks
        would be silent corruption — it fails loudly instead.
        """
        if not self.exists():
            return None
        with open(self.path, "rb") as handle:
            blob = handle.read()
        state = state_from_blob(
            blob, verify_fingerprint=self.verify_fingerprint,
            path=self.path,
        )
        if expect_node_id is not None and state.node_id != expect_node_id:
            raise CheckpointFormatError(
                f"state file {self.path} belongs to node "
                f"{state.node_id!r}, not {expect_node_id!r}; refusing to "
                "adopt another identity's cache"
            )
        if expect_mode is not None and state.mode != expect_mode:
            raise CheckpointFormatError(
                f"state file {self.path} was written in mode "
                f"{state.mode!r}, not {expect_mode!r}"
            )
        return state

    def info(self) -> Optional[dict]:
        """The stored header without unpickling the payload (or None)."""
        if not self.exists():
            return None
        return peek_header(self.path, MAGIC, _KIND)
