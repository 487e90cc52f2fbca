"""The live CUP node: an asyncio daemon over the shared protocol core.

One :class:`LiveNode` process hosts exactly one
:class:`~repro.core.node.CupNode` — constructed with the *same* classes
the simulator uses (cache, policies, recovery, keep-alive, channels) on
top of :class:`~repro.net.clock.LiveClock` and
:class:`~repro.net.transport.LiveTransport`.  Nothing in ``core/`` knows
whether it is being simulated.

Cluster mechanics
-----------------

* **Identity.**  A node's id *is* its dialable listen address
  (``"host:port"``): the membership doubles as the address book, and
  every member hashes the same membership onto the same
  :class:`~repro.overlay.chord.ChordOverlay` ring, so routing agrees
  cluster-wide without a coordination protocol.

* **The peer table** ``{id: (incarnation, status)}`` merges one way
  (:func:`merge`): per id the larger ``(incarnation, rank)`` wins, with
  ``alive < suspect < dead``.  ``members`` is the ids not dead.  Each row
  a merge changes takes effect through ``_add_member`` /
  ``_remove_member`` (the overlay, the interest patch of §2.9, the
  checker, waiting gets) and is sent once on every other open link.

* **Frames.**  ``hello`` carries the dialer's id and table, and the
  acceptor answers with its own in a ``peers`` frame, the kind that also
  carries changed rows; ``msg`` / ``direct`` carry one protocol message.
  Any other kind drops the link: a mixed-version cluster is unsupported.
  A joiner dials every member its seed names.  Otherwise a send toward a
  member without a link starts a background heal dial and the frame is
  dropped and counted (CUP's PFU timeout and recovery NACKs re-cover it).

* **Failure.**  Detectors only write rows: keep-alive misses or
  ``SUSPECT_AFTER`` dial failures write ``(Y, i, suspect)`` and arm a
  grace timer; its expiry or ``DEAD_AFTER`` failures write
  ``(Y, i, dead)``, which loses to any newer row.  A node that hears
  itself held suspect or dead announces itself alive one incarnation
  higher, so a suspicion is the probe that a healthy Chord finger —
  neighbour sets are one-sided — answers.  Graceful shutdown writes the
  node's own row dead.  Incarnations start at 0 on every boot and are
  never stored: refutation lifts a restarted node past any row its peers
  still hold, so cold and warm restarts rejoin the same way.

* **Dialing.**  Dial failures back off exponentially per peer (capped,
  jittered) instead of being retried by every frame that wants the
  link; frames queued toward a peer are bounded, with overflow counted
  rather than growing without limit against a dead destination.

* **Durability.**  With ``--state-dir`` configured, the daemon
  write-behind-saves its durable slice (cache entries + interest,
  authority index, member list, recovery watermarks) through
  :class:`~repro.persistence.nodestore.NodeStore` on a cadence and on
  graceful stop: a complete base once, then per tick only the keys that
  passed :meth:`LiveNode.receive` or a client get since the last one.
  At boot the base and its log are restored, so a restarted
  daemon *rejoins warm*: it says ``hello`` to every restored member,
  re-grafts its interests via background pulls, and
  serves local hits from the restored cache immediately while the
  pulls reconcile any staleness accrued during the outage.

* **Clients.**  A connection whose first frame is not ``hello`` is a
  client session: ``put`` routes a replica birth/refresh to the key's
  authority, ``get`` posts a local query and awaits the CUP response
  machinery, ``audit`` runs the attached invariant checker's quiescence
  sweep, ``info`` and ``stop`` do what they say.

The invariant checker attaches to the :class:`LiveNode` itself — the
one-node "network" this process can see — with ``churn``/``crash``
hazards declared (peers come and go), so every structural, monotonicity
and cost-balance check runs against real sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import math
import random
import sys
from typing import Dict, List, Optional, Set, Tuple

from repro.core.keepalive import KeepAliveMonitor
from repro.core.messages import ReplicaEvent, ReplicaMessage
from repro.core.node import CupNode
from repro.core.policies import make_policy
from repro.core.recovery import RecoveryConfig
from repro.metrics.collector import MetricsCollector
from repro.net.clock import LiveClock
from repro.net.transport import LiveTransport
from repro.net.wire import (
    FrameDecoder,
    WireError,
    encode_frame,
    entry_to_wire,
    message_from_wire,
    message_to_wire,
)
from repro.overlay.chord import ChordOverlay
from repro.persistence.checkpoint import CheckpointError
from repro.persistence.nodestore import NodeStore, sanitize_restored
from repro.sim.process import PeriodicProcess

_READ_CHUNK = 1 << 16
#: Identifier bits of the Chord ring every member derives.
_OVERLAY_BITS = 32
#: Seconds a joiner waits for each seed to connect and answer its hello.
_JOIN_TIMEOUT = 10.0
#: Consecutive dial failures before a member is suspected / declared dead.
SUSPECT_AFTER = 2
DEAD_AFTER = 6
#: Peer-table statuses, ranked: at equal incarnation the later one wins.
ALIVE, SUSPECT, DEAD = "alive", "suspect", "dead"
_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}


def merge(table: dict, rows) -> dict:
    """Fold ``rows`` — ``(id, (incarnation, status))`` pairs — into
    ``table`` and return the ids whose row changed, each mapped to the row
    it held before (``None``: unknown until now).

    A row replaces the one it names only when its ``(incarnation, rank)``
    is the larger, so merging is commutative, associative and idempotent.
    """
    changed = {}
    for peer, row in rows:
        old = table.get(peer)
        if old is None or (row[0], _RANK[row[1]]) > (old[0], _RANK[old[1]]):
            changed.setdefault(peer, old)
            table[peer] = row
    return changed


@dataclasses.dataclass(frozen=True)
class LiveNodeConfig:
    """Everything a live node needs to serve.

    ``node_id`` defaults to ``"host:port"`` once the listener is bound
    (so ``port=0`` — pick a free port — works); when overridden it must
    still be a dialable ``host:port`` string, because peers use member
    ids as addresses.
    """

    host: str = "127.0.0.1"
    port: int = 9400
    node_id: Optional[str] = None
    #: Seed member addresses to join through (empty = found a cluster).
    peers: Tuple[str, ...] = ()
    mode: str = "cup"  # "cup" | "standard"
    policy: str = "second-chance"
    pfu_timeout: float = 3.0
    keepalive_period: float = 2.0
    keepalive_misses: int = 3
    #: Garbage-collect expired cache state this often (0 disables).
    gc_interval: float = 60.0
    invariants: bool = True
    #: Run the unreliable-transport recovery layer.  TCP is reliable
    #: per-connection, but frames sent while a link is still dialing are
    #: dropped — gap detection + NACK recovers them.
    recovery: bool = True
    quiet: bool = False
    #: Directory for the durable state snapshot (None = stateless: a
    #: restart rejoins cold).
    state_dir: Optional[str] = None
    #: Write-behind snapshot cadence when ``state_dir`` is set.
    snapshot_interval: float = 5.0
    #: Per-peer dial backoff: first retry after ``base`` seconds,
    #: doubling up to ``max``, each delay stretched by up to ``jitter``
    #: (fraction) so a restarted cluster does not redial in lockstep.
    dial_backoff_base: float = 0.25
    dial_backoff_max: float = 5.0
    dial_backoff_jitter: float = 0.25
    #: Frames queued toward one peer before further sends are dropped
    #: and counted (``outbox_overflows``) instead of growing unbounded.
    outbox_limit: int = 1024

    def __post_init__(self):
        if self.mode not in ("cup", "standard"):
            raise ValueError(f"mode must be 'cup' or 'standard', got "
                             f"{self.mode!r}")
        if self.snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        if self.dial_backoff_base <= 0:
            raise ValueError("dial_backoff_base must be positive")
        if self.dial_backoff_max < self.dial_backoff_base:
            raise ValueError(
                "dial_backoff_max must be >= dial_backoff_base")
        if self.dial_backoff_jitter < 0:
            raise ValueError("dial_backoff_jitter must be >= 0")
        if self.outbox_limit < 1:
            raise ValueError("outbox_limit must be >= 1")


def _hello_id(hello: dict) -> str:
    """The member id a ``hello`` frame announces; ``WireError`` if none."""
    peer_id = hello.get("id")
    if not isinstance(peer_id, str) or not peer_id:
        raise WireError(f"hello frame without a valid id: {hello!r}")
    return peer_id


def _rows(frame: dict) -> list:
    """The peer-table rows a ``hello`` / ``peers`` frame carries, as
    :func:`merge` takes them; ``WireError`` if any is malformed."""
    rows = frame.get("peers")
    if not isinstance(rows, dict) or not all(
            peer and isinstance(row, list) and len(row) == 2
            and type(row[0]) is int and row[0] >= 0
            and row[1] in (ALIVE, SUSPECT, DEAD)
            for peer, row in rows.items()):
        raise WireError(f"malformed peer table: {rows!r}")
    return [(peer, tuple(row)) for peer, row in rows.items()]


def _show(row) -> str:
    return "none" if row is None else f"{row[1]}@{row[0]}"


class _PeerLink:
    """One live connection to a peer, with a bounded outbound queue."""

    __slots__ = (
        "peer_id", "writer", "outbox", "writer_task", "reader_task",
        "welcomed", "overflows", "on_overflow",
    )

    def __init__(self, peer_id: str, writer: asyncio.StreamWriter,
                 limit: int = 0, on_overflow=None):
        self.peer_id = peer_id
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=limit)
        self.writer_task: Optional[asyncio.Task] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.welcomed = asyncio.Event()
        self.overflows = 0
        self.on_overflow = on_overflow

    def send_json(self, obj: dict) -> None:
        frame = encode_frame(obj)
        try:
            self.outbox.put_nowait(frame)
        except asyncio.QueueFull:
            # A peer that stopped draining (dead socket, wedged reader)
            # must not grow our heap: drop and count.  The protocol's
            # recovery machinery treats this like any other lost frame.
            self.overflows += 1
            if self.on_overflow is not None:
                self.on_overflow(self)

    async def drain_outbox(self) -> None:
        writer = self.writer
        while True:
            frame = await self.outbox.get()
            writer.write(frame)
            await writer.drain()

    def close(self) -> None:
        if self.writer_task is not None:
            self.writer_task.cancel()
        with contextlib.suppress(Exception):
            self.writer.close()


class _PeerHealth:
    """Dial bookkeeping for one peer: consecutive failures (zeroed by any
    contact), the pending backoff redial, and the grace timer a suspect
    row arms."""

    __slots__ = ("dial_failures", "retry_handle", "grace_handle")

    def __init__(self):
        self.dial_failures = 0
        self.retry_handle = None
        self.grace_handle = None

    def cancel_timers(self) -> None:
        for handle in (self.retry_handle, self.grace_handle):
            if handle is not None:
                handle.cancel()
        self.retry_handle = None
        self.grace_handle = None


class LiveNode:
    """One daemon: listener, peer mesh, and the hosted CupNode."""

    def __init__(self, config: LiveNodeConfig):
        self.config = config
        self.node_id: Optional[str] = None
        self.clock: Optional[LiveClock] = None
        self.metrics = MetricsCollector()
        self.overlay = ChordOverlay(bits=_OVERLAY_BITS)
        self.transport: Optional[LiveTransport] = None
        self.node: Optional[CupNode] = None
        self.checker = None
        self.keepalive: Optional[KeepAliveMonitor] = None
        #: The peer table, this node's own row included.
        self.peers: Dict[str, Tuple[int, str]] = {}
        #: The ids whose row is not dead, kept by ``_add_member`` /
        #: ``_remove_member``.
        self.members: Set[str] = set()
        self._conns: Dict[str, _PeerLink] = {}
        #: Every open link, the losers of a simultaneous-dial race too
        #: (``_conns`` holds only the one that sends).
        self._links: Set[_PeerLink] = set()
        self._dialing: Dict[str, asyncio.Task] = {}
        self._health: Dict[str, _PeerHealth] = {}
        self._seeds: Set[str] = set()
        self._store: Optional[NodeStore] = None
        #: The store's dirty set (None when stateless: nothing to fill).
        self._dirty: Optional[set] = None
        self._snapshot_process: Optional[PeriodicProcess] = None
        self._rejoined = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._gc_process: Optional[PeriodicProcess] = None
        self._stopped = asyncio.Event()
        self._stopping = False
        #: Client gets waiting for fresh entries, filed under their key;
        #: each future resolves when its get should look again.
        self._get_waiters: Dict[str, List[asyncio.Future]] = {}

    # ------------------------------------------------------------------
    # Network surface (read by the invariant checker, beside overlay /
    # metrics / transport): the one-node "network" this process sees
    # ------------------------------------------------------------------

    @property
    def sim(self) -> Optional[LiveClock]:
        return self.clock

    @property
    def nodes(self) -> Dict[str, CupNode]:
        return {} if self.node is None else {self.node_id: self.node}

    # ------------------------------------------------------------------
    # Transport handler: registered for this node's id, in front of the
    # hosted CupNode
    # ------------------------------------------------------------------

    def receive(self, message, sender) -> None:
        """Let the core handle ``message``, then wake the key's gets and
        mark the key for the next save.

        What a waiting get tests — fresh entries for its key, in the
        cache or the authority index — changes only inside the core's
        handler (or with the membership), so the update that answers a
        get is also what wakes it; and what the store persists per key
        changes only there or in a client get (a membership change
        rewrites the base).
        """
        self.node.receive(message, sender)
        key = getattr(message, "key", None)
        if key is None:  # keep-alives carry no key
            return
        if self._dirty is not None:
            self._dirty.add((key, getattr(message, "replica_id", None)))
        if self._get_waiters:
            _wake(self._get_waiters.get(key, ()))

    # ------------------------------------------------------------------
    # Router interface (consumed by LiveTransport)
    # ------------------------------------------------------------------

    def is_peer(self, node_id) -> bool:
        return node_id in self.members

    def call_soon(self, fn, *args) -> None:
        self.clock.call_soon(fn, *args)

    def send_wire(self, src, dst, message, direct: bool) -> bool:
        link = self._conns.get(dst)
        if link is None:
            if dst in self.members and not self._stopping:
                # Heal in the background; this frame is dropped (the
                # caller counts it) and the protocol's own retry
                # machinery re-covers the loss.
                self._ensure_link(dst)
            return False
        link.send_json({
            "t": "direct" if direct else "msg",
            "src": src,
            "m": message_to_wire(message),
        })
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        config = self.config
        loop = asyncio.get_running_loop()
        self.clock = LiveClock(loop)
        self.transport = LiveTransport(self.clock, router=self)
        self.transport.attach_metrics(self.metrics)
        self._server = await asyncio.start_server(
            self._on_connection, config.host, config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        self.node_id = config.node_id or f"{config.host}:{port}"
        self.peers[self.node_id] = (0, ALIVE)
        self.members.add(self.node_id)
        self.overlay.join(self.node_id)
        is_cup = config.mode == "cup"
        self.node = CupNode(
            node_id=self.node_id,
            sim=self.clock,
            transport=self.transport,
            overlay=self.overlay,
            policy=make_policy(config.policy),
            metrics=self.metrics,
            persistent_interest=is_cup,
            coalesce=is_cup,
            pfu_timeout=config.pfu_timeout,
            recovery_config=RecoveryConfig() if config.recovery else None,
        )
        self.transport.register(self.node_id, self)
        if config.invariants:
            from repro.invariants.checker import InvariantChecker

            self.checker = InvariantChecker(
                self,
                hazards=("churn", "crash"),
                raise_immediately=False,
            )
            self.transport.add_send_observer(self.checker.on_send)
            self.node.invariant_probe = self.checker
        self.keepalive = KeepAliveMonitor(
            self.clock, self.transport, self.node_id,
            neighbors_fn=lambda: self.overlay.neighbors(self.node_id),
            period=config.keepalive_period,
            miss_threshold=config.keepalive_misses,
            on_suspect=lambda _reporter, peer: self._verdict(
                peer, SUSPECT, "keep-alive misses"),
        )
        self.node.keepalive_monitor = self.keepalive
        if config.state_dir is not None:
            self._store = NodeStore(config.state_dir)
            self._dirty = self._store.dirty
            self._restore_state()
        self.keepalive.start()
        if config.gc_interval > 0:
            self._gc_process = PeriodicProcess(
                self.clock, config.gc_interval, self.node.gc
            )
        if self._store is not None:
            self._snapshot_process = PeriodicProcess(
                self.clock, config.snapshot_interval, self._snapshot_state
            )
        self._log(f"serving as {self.node_id} "
                  f"(mode={config.mode}, policy={config.policy})")
        self._seeds = {seed for seed in config.peers
                       if seed != self.node_id}
        for seed in config.peers:
            await self._join_via(seed)
        self._seeds.clear()
        # Hello to every member a seed or the store named: ones that
        # answer learn this node, ones that are gone fall to the
        # backoff/suspicion machinery — membership reconverges either way.
        for member in sorted(self.members - {self.node_id, *self._conns}):
            self._ensure_link(member, probe=True)
        if self._rejoined:
            self._reconcile_restored()

    async def _join_via(self, seed: str) -> None:
        if seed == self.node_id:
            return
        loop = self.clock.loop
        deadline = loop.time() + _JOIN_TIMEOUT
        # Keep probing until the backoff machinery lands a connection
        # or the join deadline expires — a seed that is itself still
        # booting (or briefly down) should not fail the join outright.
        while True:
            link = await self._ensure_link(seed)
            if link is not None:
                break
            if loop.time() >= deadline:
                raise ConnectionError(
                    f"could not reach seed member {seed} within "
                    f"{_JOIN_TIMEOUT}s"
                )
            await asyncio.sleep(0.05)
        try:
            await asyncio.wait_for(
                link.welcomed.wait(),
                timeout=max(deadline - loop.time(), 0.1),
            )
        except asyncio.TimeoutError:
            raise ConnectionError(
                f"seed member {seed} sent no peer table within "
                f"{_JOIN_TIMEOUT}s"
            ) from None
        self._log(f"joined via {seed}; members={sorted(self.members)}")

    # ------------------------------------------------------------------
    # Durable state (warm rejoin)
    # ------------------------------------------------------------------

    def _restore_state(self) -> None:
        """Load the state-dir snapshot (if any) into the fresh node.

        A load failure — version skew, fingerprint skew, foreign
        identity, corrupt payload — logs loudly and starts cold rather
        than killing the daemon: the operator asked for a node, and a
        cold node is a correct (if slower) one.
        """
        try:
            state = self._store.load(
                expect_node_id=self.node_id,
                expect_mode=self.config.mode,
            )
        except CheckpointError as exc:
            self._log(f"state restore failed ({exc}); starting cold")
            return
        if state is None:
            self._log(f"no state at {self._store.path}; starting cold")
            return
        kept = sanitize_restored(state, self.clock.now)
        node = self.node
        node.cache.states.update(state.cache.states)
        node.authority_index = state.authority
        if node.recovery is not None and state.recovery is not None:
            node.recovery.import_state(state.recovery)
        peers = self._merge(
            [(member, (0, ALIVE)) for member in state.members
             if member != self.node_id], "restored")
        self._rejoined = True
        self.metrics.state_restored_keys += kept
        self._log(f"warm rejoin: restored {kept} keys and {len(peers)} "
                  f"peers from {self._store.path}")

    def _reconcile_restored(self) -> None:
        """Background pulls for every restored non-authority key.

        Restored entries serve local hits immediately, but the node was
        deaf while down: pulls re-graft its interest upstream and wash
        out any staleness accrued during the outage.  Authority keys
        and keys already mid-pull are skipped by the pull helper.
        """
        node = self.node
        for key in sorted(node.cache.states):
            node._recover_by_pull(key)

    def _snapshot_state(self, base: bool = False) -> None:
        if self._store is None:
            return
        try:
            self._store.save(self, base=base)
        except Exception as exc:  # disk full, perms — keep serving
            self.metrics.state_snapshot_failures += 1
            self._log(f"state snapshot failed: {exc}")
        else:
            self.metrics.state_snapshots += 1

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    def request_stop(self) -> None:
        """Begin a graceful shutdown (idempotent, callable from signals)."""
        if self._stopping:
            return
        self._stopping = True
        asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        self._log("leaving the cluster")
        if self.keepalive is not None:
            self.keepalive.stop()
        if self._gc_process is not None:
            self._gc_process.stop()
        if self._snapshot_process is not None:
            self._snapshot_process.stop()
        # The state a graceful stop resumes from: one base, no log.
        self._snapshot_state(base=True)
        for health in self._health.values():
            health.cancel_timers()
        self._merge([(self.node_id, (self.peers[self.node_id][0], DEAD))],
                    "graceful stop")
        # One breath for that row to flush through the queues.
        await asyncio.sleep(0.05)
        # Every open link, not only the registry's: the loser of a
        # simultaneous dial still has a reader and a writer task.
        tasks = list(self._dialing.values())
        for link in list(self._links):
            tasks += [link.reader_task, link.writer_task]
            link.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._conns.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _wake_all_gets(self) -> None:
        # Any key's authority may have moved with the membership.
        for waiters in self._get_waiters.values():
            _wake(waiters)

    def _add_member(self, member: str) -> None:
        if member in self.members:
            return
        self.members.add(member)
        self.overlay.join(member)
        if self.checker is not None:
            self.checker.on_membership_change("join", member)
        self._wake_all_gets()

    def _remove_member(self, member: str, reason: str) -> None:
        if member == self.node_id or member not in self.members:
            return
        self.members.discard(member)
        health = self._health.pop(member, None)
        if health is not None:
            health.cancel_timers()
        self.overlay.leave(member)
        self.node.patch_after_churn(self.members)
        if self.checker is not None:
            self.checker.on_membership_change(reason, member)
        self._wake_all_gets()
        link = self._conns.pop(member, None)
        if link is not None:
            if link.reader_task is not None:
                link.reader_task.cancel()
            link.close()

    def _merge(self, rows, why: str,
               origin: Optional[_PeerLink] = None) -> dict:
        """Merge ``rows`` into the peer table: each row that changes it is
        logged, takes effect, and is sent on every open link but
        ``origin``'s.  Returns :func:`merge`'s changes."""
        table, me = self.peers, self.node_id
        changed = merge(table, rows)
        if table[me][1] != ALIVE and not self._stopping:
            # A row says this node is suspect or dead: out-rank it, and
            # tell whoever sent it too.
            table[me], origin = (table[me][0] + 1, ALIVE), None
        for peer, old in changed.items():
            incarnation, status = table[peer]
            self._log(f"member {peer}: {_show(old)} -> "
                      f"{_show(table[peer])} ({why})")
            if peer == me:
                continue
            health = self._health.get(peer)
            if health is not None and health.grace_handle is not None:
                health.grace_handle.cancel()
                health.grace_handle = None
            if status == DEAD:
                self._remove_member(peer, why)
                continue
            self._add_member(peer)
            if status == SUSPECT:
                self._health_of(peer).grace_handle = (
                    self.clock.loop.call_later(
                        self.config.keepalive_period
                        * self.config.keepalive_misses, self._verdict,
                        peer, DEAD, "suspicion grace expired", incarnation))
        if changed:
            frame = {"t": "peers",
                     "peers": {peer: table[peer] for peer in changed}}
            for link in list(self._conns.values()):
                if link is not origin:
                    link.send_json(frame)
        return changed

    # ------------------------------------------------------------------
    # Peer health: detectors write rows, the merge decides
    # ------------------------------------------------------------------

    def _health_of(self, peer_id: str) -> _PeerHealth:
        health = self._health.get(peer_id)
        if health is None:
            health = self._health[peer_id] = _PeerHealth()
        return health

    def _peer_alive(self, peer_id: str) -> None:
        """Any contact with the peer clears its failures and backoff."""
        health = self._health.get(peer_id)
        if health is None:
            return
        health.dial_failures = 0
        if health.retry_handle is not None:
            health.retry_handle.cancel()
            health.retry_handle = None

    def _verdict(self, peer_id: str, status: str, why: str,
                 incarnation: Optional[int] = None) -> None:
        """A local detector's row about a member (at its current
        incarnation unless given); counted when the merge takes it."""
        if self._stopping or peer_id not in self.members:
            return
        if incarnation is None:
            incarnation = self.peers.get(peer_id, (0, ALIVE))[0]
        if self._merge([(peer_id, (incarnation, status))], why):
            if status == SUSPECT:
                self.metrics.peers_suspected += 1
            else:
                self.metrics.peers_declared_dead += 1

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _ensure_link(self, peer_id: str, probe: bool = False):
        """A live link to ``peer_id`` — existing, or a background dial.

        Returns the link when one is already up; otherwise returns the
        (possibly fresh) dial task's eventual link via ``await``, or
        ``None`` synchronously for fire-and-forget callers.  While the
        peer is in backoff cooldown, plain callers get ``None`` — the
        pending redial owns the next attempt — and only ``probe=True``
        callers (redials, client puts, hellos at boot) cut the cooldown
        short and dial now.
        """
        link = self._conns.get(peer_id)
        if link is not None:
            return _immediate(link)
        task = self._dialing.get(peer_id)
        if task is not None:
            return task
        health = self._health.get(peer_id)
        if health is not None and health.retry_handle is not None:
            if not probe:
                return _immediate(None)
            health.retry_handle.cancel()
            health.retry_handle = None
        task = asyncio.ensure_future(self._dial(peer_id))
        self._dialing[peer_id] = task
        task.add_done_callback(
            lambda _t: self._dialing.pop(peer_id, None)
        )
        return task

    def _make_link(self, peer_id: str,
                   writer: asyncio.StreamWriter) -> _PeerLink:
        return _PeerLink(
            peer_id, writer,
            limit=self.config.outbox_limit,
            on_overflow=self._outbox_overflow,
        )

    def _outbox_overflow(self, link: _PeerLink) -> None:
        self.metrics.outbox_overflows += 1
        if link.overflows == 1:
            self._log(f"outbox to {link.peer_id} full "
                      f"({self.config.outbox_limit} frames); dropping")

    async def _dial(self, peer_id: str):
        host, _, port = peer_id.rpartition(":")
        try:
            reader, writer = await asyncio.open_connection(host, int(port))
        except (OSError, ValueError) as exc:
            self._note_dial_failure(peer_id, exc)
            return None
        self._peer_alive(peer_id)
        link = self._make_link(peer_id, writer)
        self._register_link(link)
        link.send_json({"t": "hello", "id": self.node_id,
                        "peers": self.peers})
        link.reader_task = asyncio.ensure_future(
            self._on_connection(reader, writer, link)
        )
        return link

    def _backoff_delay(self, failures: int) -> float:
        config = self.config
        delay = min(
            config.dial_backoff_base * (2 ** max(failures - 1, 0)),
            config.dial_backoff_max,
        )
        return delay * (1.0 + config.dial_backoff_jitter
                        * random.random())

    def _wants_link(self, peer_id: str) -> bool:
        return (not self._stopping
                and peer_id != self.node_id
                and peer_id not in self._conns
                and (peer_id in self.members or peer_id in self._seeds))

    def _note_dial_failure(self, peer_id: str, exc: Exception) -> None:
        if self._stopping:
            return
        self.metrics.dial_failures += 1
        health = self._health_of(peer_id)
        health.dial_failures += 1
        failures = health.dial_failures
        if peer_id in self.members:
            if failures >= SUSPECT_AFTER:
                self._verdict(peer_id,
                              DEAD if failures >= DEAD_AFTER else SUSPECT,
                              f"{failures} consecutive dial failures")
                if peer_id not in self.members:
                    return
        elif peer_id not in self._seeds:
            # Neither a member nor a seed being joined: nobody wants
            # this link anymore, so don't keep a retry alive for it.
            self._health.pop(peer_id, None)
            return
        delay = self._backoff_delay(failures)
        self._log(f"dial {peer_id} failed ({exc}); "
                  f"retry {failures} in {delay:.2f}s")
        if health.retry_handle is not None:
            health.retry_handle.cancel()
        health.retry_handle = self.clock.loop.call_later(
            delay, self._redial, peer_id
        )

    def _redial(self, peer_id: str) -> None:
        health = self._health.get(peer_id)
        if health is not None:
            health.retry_handle = None
        if not self._wants_link(peer_id):
            return
        self.metrics.dial_retries += 1
        self._ensure_link(peer_id, probe=True)

    def _register_link(self, link: _PeerLink) -> None:
        # Simultaneous dials can race a second connection into place;
        # the newest wins the registry and the older one drains until
        # its EOF (frames on either are delivered — TCP order holds per
        # connection, and the recovery layer absorbs cross-connection
        # reordering like any other transport anomaly).
        self._conns[link.peer_id] = link
        self._links.add(link)
        link.writer_task = asyncio.ensure_future(link.drain_outbox())

    def _link_closed(self, link: _PeerLink) -> None:
        link.close()
        self._links.discard(link)
        if self._conns.get(link.peer_id) is link:
            del self._conns[link.peer_id]
            # A member's link dropping is the first crash signal most
            # peers get (keep-alives only probe overlay neighbors):
            # redial so the backoff machinery either heals the mesh or
            # escalates through suspect -> dead and evicts the member.
            if self._wants_link(link.peer_id):
                self._ensure_link(link.peer_id)

    def _process_peer_frame(self, link: _PeerLink, frame: dict) -> None:
        # Any frame from the peer proves life: clear failures/backoff.
        self._peer_alive(link.peer_id)
        t = frame.get("t")
        if t == "msg" or t == "direct":
            self.transport.deliver_wire(
                frame.get("src"), self.node_id,
                message_from_wire(frame["m"]),
            )
        elif t == "hello" or t == "peers":
            self._merge(_rows(frame), f"from {link.peer_id}", link)
            if t == "hello":
                link.send_json({"t": "peers", "peers": self.peers})
            else:
                link.welcomed.set()
        else:
            raise WireError(f"unknown peer frame type {t!r}")

    # ------------------------------------------------------------------
    # Inbound connections (peers and clients share the listener)
    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             link: Optional[_PeerLink] = None) -> None:
        """Decode and dispatch one connection's frames until it closes.

        An accepted connection arrives without a ``link`` and becomes a
        peer link on ``hello`` or a client session on anything else; a
        dialed one (:meth:`_dial`) is a registered peer link already.
        """
        decoder = FrameDecoder()
        stop_after = False
        try:
            while not stop_after:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    if link is not None:
                        self._process_peer_frame(link, frame)
                    elif frame.get("t") == "hello":
                        link = self._make_link(_hello_id(frame), writer)
                        link.reader_task = asyncio.current_task()
                        self._register_link(link)
                        self._process_peer_frame(link, frame)
                    else:
                        stop_after = await self._handle_client_frame(
                            frame, writer
                        )
                        if stop_after:
                            break
        except WireError as exc:
            who = "connection" if link is None else f"link to {link.peer_id}"
            self._log(f"dropping corrupt {who}: {exc}")
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if link is not None:
                self._link_closed(link)
            else:
                with contextlib.suppress(Exception):
                    writer.close()
        if stop_after:
            self.request_stop()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    async def _handle_client_frame(self, frame: dict,
                                   writer: asyncio.StreamWriter) -> bool:
        """Serve one client request; returns True for a stop request."""
        t = frame.get("t")
        stop = False
        try:
            if t == "put":
                reply = await self._client_put(frame)
            elif t == "get":
                reply = await self._client_get(frame)
            elif t == "info":
                reply = self._client_info()
            elif t == "audit":
                reply = self._client_audit()
            elif t == "hazard":
                reply = self._client_hazard(frame)
            elif t == "stop":
                reply = {"t": "ok", "id": self.node_id}
                stop = True
            else:
                reply = {"t": "error",
                         "error": f"unknown request type {t!r}"}
        except Exception as exc:  # a bad request must not kill the node
            reply = {"t": "error", "error": f"{type(exc).__name__}: {exc}"}
        writer.write(encode_frame(reply))
        await writer.drain()
        return stop

    async def _client_put(self, frame: dict) -> dict:
        key = frame["key"]
        lifetime = frame.get("lifetime", 300.0)
        if not _finite(lifetime) or lifetime <= 0:
            return {"t": "error", "error": "lifetime must be a finite "
                                           f"number > 0, got {lifetime!r}"}
        message = ReplicaMessage(
            event=ReplicaEvent(frame.get("event", "birth")),
            key=key,
            replica_id=frame["replica_id"],
            address=frame.get("address", ""),
            lifetime=float(lifetime),
        )
        authority = self.overlay.authority(key)
        if authority != self.node_id:
            # A replica announcement is fire-and-forget control traffic
            # with no retry of its own, so unlike protocol sends (whose
            # loss the recovery machinery absorbs) it must not race a
            # link that is still dialing: wait for the connection.  A
            # probe dial cuts through any backoff cooldown — the client
            # asked now, and the answer should be fresh.
            link = await self._ensure_link(authority, probe=True)
            if link is None:
                return {"t": "error", "authority": authority,
                        "error": f"authority {authority} is unreachable"}
        self.transport.send_direct(authority, message)
        return {"t": "ok", "authority": authority}

    async def _client_get(self, frame: dict) -> dict:
        key = frame["key"]
        timeout = frame.get("timeout", 5.0)
        if not _finite(timeout) or timeout < 0:
            return {"t": "error", "error": "timeout must be a finite "
                                           f"number >= 0, got {timeout!r}"}
        node = self.node
        loop = self.clock.loop
        deadline = loop.time() + timeout
        dirty = self._dirty
        if dirty is not None:
            dirty.add((key, None))
        node.post_local_query(key)
        last_query = loop.time()
        state = node.cache.get_or_create(key)
        hit = True
        while True:
            now = self.clock.now
            at_authority = node._is_authority(key, state)
            if at_authority:
                entries = list(
                    node.authority_index.fresh_entries(key, now)
                )
                if entries:
                    break
                # The authoritative index is empty: keep waiting — a
                # birth may still be in flight — until the deadline
                # reports an authoritative miss.
            elif state.has_fresh(now):
                entries = list(state.fresh_entries(now))
                break
            hit = False
            remaining = deadline - loop.time()
            if remaining <= 0:
                return {"t": "result", "ok": False, "hit": False,
                        "key": key, "entries": [],
                        "error": f"no fresh entries within {timeout}s"}
            if not at_authority:
                # At the authority nothing is upstream to re-push to.
                if loop.time() - last_query >= 1.0:
                    # Re-post past the PFU timeout so a query frame lost
                    # to a mid-dial window gets re-pushed upstream.
                    if dirty is not None:
                        dirty.add((key, None))  # a save may have come by
                    node.post_local_query(key)
                    last_query = loop.time()
                remaining = min(remaining, last_query + 1.0 - loop.time())
            await self._wait_for_key(key, remaining)
        return {
            "t": "result", "ok": True, "hit": hit, "key": key,
            "entries": [entry_to_wire(e) for e in entries],
            "authority": self.overlay.authority(key),
        }

    async def _wait_for_key(self, key: str, wait: float) -> None:
        """Sleep until :meth:`receive` handles a message for ``key``, the
        membership changes, or ``wait`` seconds pass."""
        loop = self.clock.loop
        waiter = loop.create_future()
        waiters = self._get_waiters.setdefault(key, [])
        waiters.append(waiter)
        timer = loop.call_later(wait, _wake, (waiter,))
        try:
            await waiter
        finally:
            timer.cancel()
            waiters.remove(waiter)
            if not waiters:
                del self._get_waiters[key]

    def _client_info(self) -> dict:
        checker = self.checker
        recovery = self.node.recovery
        store = self._store
        return {
            "t": "info",
            "id": self.node_id,
            "members": sorted(self.members),
            "connections": sorted(self._conns),
            "mode": self.config.mode,
            "rejoined": self._rejoined,
            "transport": {
                "sent": self.transport.sent,
                "sent_direct": self.transport.sent_direct,
                "received": self.transport.received,
                "delivered": self.transport.delivered,
                "dropped": self.transport.dropped,
            },
            "recovery": self.metrics.recovery_report(),
            "open_gaps": (
                len(recovery.open_gaps()) if recovery is not None else 0
            ),
            "livenode": self.metrics.livenode_report(),
            "peers": {
                peer: {"incarnation": incarnation, "status": status,
                       "dial_failures": self._health[peer].dial_failures
                       if peer in self._health else 0}
                for peer, (incarnation, status) in sorted(self.peers.items())
            },
            "persistence": None if store is None else store.report(),
            "violations": (
                len(checker.violations) if checker is not None else None
            ),
        }

    def _client_hazard(self, frame: dict) -> dict:
        """Open/close the checker's hazard windows (drill orchestration).

        A chaos driver injects a real fault, then tells each *survivor*
        which hazards its checker should tolerate while the fault's
        effects wash through — the live twin of the simulator scenarios
        declaring hazards per phase.
        """
        checker = self.checker
        if checker is None:
            return {"t": "error",
                    "error": "invariants disabled on this node"}
        action = frame.get("action", "open")
        hazards = frame.get("hazards") or []
        if action == "open":
            duration = frame.get("duration")
            checker.open_hazard_window(
                hazards,
                None if duration is None else float(duration),
            )
        elif action == "close":
            checker.close_hazard_window(hazards or None)
        else:
            return {"t": "error",
                    "error": f"unknown hazard action {action!r}"}
        return {"t": "ok", "id": self.node_id,
                "active": sorted(checker.active_hazards())}

    def _client_audit(self) -> dict:
        checker = self.checker
        if checker is None:
            return {"t": "audit", "ok": None, "violations": [],
                    "error": "invariants disabled on this node"}
        before = len(checker.violations)
        checker.check_quiescent()
        fresh = checker.violations[before:]
        return {
            "t": "audit",
            "ok": not checker.violations,
            "violations": [str(v) for v in checker.violations],
            "fresh_violations": [str(v) for v in fresh],
            "audits_run": checker.audits_run,
        }

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _log(self, text: str) -> None:
        if not self.config.quiet:
            prefix = self.node_id or f"{self.config.host}:?"
            print(f"[{prefix}] {text}", flush=True)


def _finite(value) -> bool:
    """Whether a client's number is one: ``json.loads`` accepts ``NaN``
    and ``Infinity``, and ``true`` is an ``int`` to Python."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _wake(waiters) -> None:
    """Resolve every pending future in ``waiters``."""
    for waiter in waiters:
        if not waiter.done():
            waiter.set_result(None)


def _immediate(value):
    """An awaitable resolving instantly to ``value`` (link cache hits)."""
    future = asyncio.get_event_loop().create_future()
    future.set_result(value)
    return future


async def run_node(config: LiveNodeConfig,
                   install_signals: bool = True) -> LiveNode:
    """Start a node, serve until stopped, return the (stopped) node."""
    import signal

    node = LiveNode(config)
    await node.start()
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, node.request_stop)
    await node.serve_forever()
    return node


def serve(config: LiveNodeConfig) -> int:
    """Blocking entry point used by ``repro node serve``."""
    try:
        asyncio.run(run_node(config))
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0
