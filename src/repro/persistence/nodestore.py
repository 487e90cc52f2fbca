"""Durable state for a *live* CUP node: warm rejoin from disk.

A :class:`~repro.net.daemon.LiveNode` dies stateless by default — a
restart rejoins cold, its cached index entries, interest sets and
recovery watermarks gone.  This module gives the daemon the same
crash-durability the simulator got from the PR-8 checkpoint layer, with
the same discipline:

* **A base, then what changed.**  The node's disk is treated like a
  CUP neighbour: sent the whole index once, the updates after.
  ``<state-dir>/node.state`` is a *complete* snapshot replaced through
  :func:`~repro.persistence.checkpoint.atomic_write` (temp file +
  ``os.replace``), so a ``kill -9`` mid-write cannot corrupt it; between
  bases a save appends to ``node.log`` one record of the keys touched
  since the last save, framed with its length, a CRC32 and the identity
  of the base it extends.  A load replays the log over the base up to
  the first torn record and skips a log left beside a newer base (a
  crash between ``os.replace`` and ``unlink``).  Nothing here calls
  ``fsync``: the guarantee is against the death of the process, not of
  the machine.
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
armed timers, retransmission buffers, routing memos, the record of a
clear-bit sent upstream — is scrubbed by :func:`sanitize_restored` at
load: those all died with the process, and pretending otherwise would
leave a restored node waiting on answers nobody owes it.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import struct
import time
import zlib
from typing import Optional, Set, Tuple

from repro.core.cache import NO_DEADLINES, NO_NEIGHBORS
from repro.persistence.checkpoint import (
    CheckpointFormatError,
    atomic_write,
    pack,
    peek_header,
    unpack,
)
from repro.replicas.authority import NO_AUTHORITY, AuthorityIndex

MAGIC = b"CUPNODE\n"
_KIND = "node state"

#: The base inside a node's ``--state-dir``, and the log beside it.
STATE_FILENAME = "node.state"
LOG_FILENAME = "node.log"

#: One log record: payload length, CRC32 over base id + payload, and the
#: id of the base the record extends (:func:`_base_id`).
_FRAME = struct.Struct("<II8s")

#: Default write-behind cadence (seconds) when a state dir is configured
#: without one: frequent enough that a kill loses at most a few seconds
#: of update traffic, cheap enough to forget (the keys that changed, not
#: the node).
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


def _capture_delta(daemon, members: Tuple[str, ...], dirty) -> dict:
    """What :func:`capture_state` would hold for the ``dirty`` (key,
    replica id) pairs alone: one log record's payload."""
    node = daemon.node
    keys = {key for key, _ in dirty}
    states = node.cache.states
    recovery = node.recovery
    return {
        "saved_at": daemon.clock.now,
        "members": members,
        # None: the key's state is gone and the replay drops it too.
        "states": {key: states.get(key) for key in keys},
        "authority": node.authority_index.export_slice(dirty),
        "recovery": None if recovery is None else recovery.export_state(
            links=[(member, key) for member in members for key in keys]
        ),
    }


def _apply_delta(state: NodeState, delta: dict) -> None:
    """Replay one log record over a loaded ``state``."""
    states = state.cache.states
    for key, key_state in delta["states"].items():
        if key_state is None:
            states.pop(key, None)
        else:
            states[key] = key_state
    if state.authority is NO_AUTHORITY:
        state.authority = AuthorityIndex()
    state.authority.install_slice(delta["authority"])
    recovery = delta["recovery"]
    if recovery is not None:
        # Watermarks only move forward and links only go with their
        # member (which rewrites the base), so the slice overwrites.
        state.recovery["send_seq"].update(recovery["send_seq"])
        state.recovery["recv_high"].update(recovery["recv_high"])
        degraded = set(state.recovery["degraded"])
        degraded.difference_update(delta["states"])
        degraded.update(recovery["degraded"])
        state.recovery["degraded"] = sorted(degraded)
    state.members = delta["members"]
    state.saved_at = delta["saved_at"]


def sanitize_restored(state: NodeState, now: float) -> int:
    """Scrub volatile bits from a loaded snapshot; return keys kept.

    Pending-first-update flags, local waiters and coalesced-response
    sets all referred to connections and timers that died with the old
    process; overlay memos (parent/distance/authority) belong to an
    overlay that will be rebuilt from the rejoined membership, and a
    clear-bit sent upstream is void once the rejoin's reconcile pull
    re-grafts the key's interest there.  Expired entries are purged (and
    the expiry bounds made exact: the gc sweep tightens them on the live
    node without the store hearing of it), and key states left with
    nothing worth keeping are dropped outright.
    """
    cache = state.cache
    for key in list(cache.states):
        key_state = cache.states[key]
        key_state.pending_first_update = False
        key_state.pending_since = 0.0
        key_state.local_waiters = 0
        key_state.waiting = NO_NEIGHBORS
        key_state.justification_deadlines = NO_DEADLINES
        key_state.parent = None
        key_state.parent_epoch = -1
        key_state.distance = -1
        key_state.distance_epoch = -1
        key_state.is_authority_here = False
        key_state.authority_epoch = -1
        key_state.clear_bit_sent = False
        key_state.purge_expired(now)
        key_state._recompute_expiry_bounds()
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


def _base_id(blob: bytes) -> bytes:
    """What a log record names its base by: the blob's CRC32 and length
    (the header carries ``saved_at``, so no two bases of a node agree)."""
    return struct.pack("<II", zlib.crc32(blob), len(blob))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class NodeStore:
    """Write-behind store for one daemon's durable state.

    One directory, a ``node.state`` base and a ``node.log`` of deltas.
    The daemon adds to :attr:`dirty` at the doors every keyed mutation
    passes, saves on a cadence and on graceful stop, and at boot loads
    (if a base exists) and warm-rejoins.  A save rewrites the base when
    it is the first of this process, when the membership changed
    (``patch_after_churn`` touches every key), when asked to (graceful
    stop) and when the log has outgrown the base; otherwise it appends
    the dirty keys, and with none writes nothing.
    """

    def __init__(self, state_dir, verify_fingerprint: bool = True):
        self.state_dir = os.fspath(state_dir)
        self.path = os.path.join(self.state_dir, STATE_FILENAME)
        self.log_path = os.path.join(self.state_dir, LOG_FILENAME)
        self.verify_fingerprint = verify_fingerprint
        #: ``(key, replica_id)`` pairs touched since the last save; the
        #: replica id (``None`` when the mutation names none) says which
        #: of the key's authority sequence counters may have moved.
        self.dirty: Set[Tuple[str, Optional[str]]] = set()
        self._base: Optional[bytes] = None  # id of the base the log extends
        self._members: Tuple[str, ...] = ()
        self.saves = self.base_bytes = self.log_bytes = self.log_records = 0
        self.last_save_kind: Optional[str] = None
        self.last_save_ms = 0.0
        #: What the last :meth:`load` did with the log: records replayed
        #: and dropped — a torn or corrupt tail counts once (what follows
        #: it is unreadable), a record naming another base once each.
        self.replayed = self.torn_dropped = self.stale_dropped = 0

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, daemon, base: bool = False) -> str:
        """Persist ``daemon``'s durable state; return the file written
        (the base when nothing was dirty and nothing was written)."""
        started = time.perf_counter()
        members = tuple(sorted(daemon.members))
        if (base or self._base is None or members != self._members
                or self.log_bytes > self.base_bytes):
            path = self._write_base(daemon)
        elif self.dirty:
            path = self._append(_capture_delta(daemon, members, self.dirty))
        else:
            return self.path
        self.dirty.clear()
        self.saves += 1
        self.last_save_kind = "base" if path == self.path else "log"
        self.last_save_ms = round((time.perf_counter() - started) * 1e3, 3)
        return path

    def _write_base(self, daemon) -> str:
        state = capture_state(daemon)
        blob = state_to_blob(state)
        atomic_write(self.path, blob, prefix=".nodestate-")
        # A crash here leaves the old log beside the new base: its
        # records name the old base and the next load ignores them.
        if os.path.exists(self.log_path):
            os.unlink(self.log_path)
        self._base = _base_id(blob)
        self._members = state.members
        self.base_bytes = len(blob)
        self.log_bytes = self.log_records = 0
        return self.path

    def _append(self, delta: dict) -> str:
        payload = pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _FRAME.pack(
            len(payload), zlib.crc32(self._base + payload), self._base
        ) + payload
        try:
            with open(self.log_path, "ab") as handle:
                handle.write(frame)
        except OSError:
            # The tail may be torn, and a record appended behind a torn
            # one is never read: start over from a base.
            self._base = None
            raise
        self.log_bytes += len(frame)
        self.log_records += 1
        return self.log_path

    def load(
        self,
        expect_node_id: Optional[str] = None,
        expect_mode: Optional[str] = None,
    ) -> Optional[NodeState]:
        """The stored state — the base with its log replayed — or
        ``None`` when no base exists yet.

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
        self.base_bytes = len(blob)
        self._replay(state, _base_id(blob))
        return state

    def _replay(self, state: NodeState, base: bytes) -> None:
        """Apply every whole record of the log that extends ``base``."""
        self.log_bytes = self.log_records = 0
        self.replayed = self.torn_dropped = self.stale_dropped = 0
        if not os.path.exists(self.log_path):
            return
        with open(self.log_path, "rb") as handle:
            log = handle.read()
        self.log_bytes = len(log)
        offset = 0
        while offset < len(log):
            body = offset + _FRAME.size
            if body > len(log):
                self.torn_dropped = 1
                return
            length, crc, named = _FRAME.unpack_from(log, offset)
            payload = log[body:body + length]
            if len(payload) < length or zlib.crc32(named + payload) != crc:
                self.torn_dropped = 1
                return
            if named == base:
                _apply_delta(state, pickle.loads(payload))
                self.replayed += 1
                self.log_records += 1
            else:
                self.stale_dropped += 1
            offset = body + length

    def report(self) -> dict:
        """What the store is doing, for ``repro node info``."""
        return {name: getattr(self, name) for name in (
            "path", "saves", "base_bytes", "log_bytes", "log_records",
            "last_save_kind", "last_save_ms", "replayed", "torn_dropped",
            "stale_dropped",
        )}

    def info(self) -> Optional[dict]:
        """The base's header without unpickling the payload (or None)."""
        if not self.exists():
            return None
        return peek_header(self.path, MAGIC, _KIND)
