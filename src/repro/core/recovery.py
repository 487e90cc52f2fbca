"""Unreliable-transport survival layer: gap detection, NACK, degradation.

CUP as specified assumes exactly-once, in-order delivery — the paper's
cost model never prices a lost update.  This module adds the machinery a
node needs to survive a transport that loses, duplicates, or reorders
messages (see :class:`repro.sim.network.LinkFaults`):

* **Sequence stamping.**  Every update a node transmits to a neighbor
  carries a per-(neighbor, key) hop sequence number (``hop_seq`` on
  :class:`~repro.core.messages.UpdateMessage`), stamped just before the
  transport send.  Recently sent envelopes are kept in a bounded
  per-link buffer for retransmission.

* **Gap detection + NACK.**  The receiver tracks a per-(sender, key)
  watermark.  A sequence jump means intervening updates were lost: the
  node records the missing numbers, sends a
  :class:`~repro.core.messages.NackMessage` upstream, and arms a retry
  timer.  Retries back off exponentially (capped) because the NACK and
  the retransmission are themselves subject to loss.

* **Duplicate suppression.**  A sequence number at or below the
  watermark that is not a recorded gap member has already been applied;
  the duplicate is counted and dropped before it can touch the cache.

* **Graceful degradation.**  When retries exhaust, or the upstream peer
  departs, the node stops waiting: it records a *degraded read* for the
  key and falls back to pull-on-miss — re-issuing a query up the overlay
  so the existing first-time-update machinery re-grafts its interest and
  refills the cache.  The tree self-heals instead of serving stale data
  forever.

The manager is inert unless constructed — nodes on the default reliable
path (``CupConfig.reliable_transport=True``) never instantiate one, so
the golden-pin byte-identity of the reliable path is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

from repro.core.messages import NackMessage, UpdateMessage
from repro.sim.network import NodeId


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning knobs for the recovery state machine.

    Attributes
    ----------
    max_retries:
        NACK retransmissions per gap before the node gives up and
        degrades to a pull.  Retry counts are bounded by this cap.
    base_timeout:
        Seconds to wait for the first retransmission before re-NACKing.
    backoff:
        Multiplier applied to the timeout on every retry (exponential
        backoff).
    max_timeout:
        Ceiling on the backed-off timeout.
    buffer_size:
        Sent-update envelopes retained per (neighbor, key) link for
        retransmission; older envelopes are evicted FIFO and become
        unrecoverable over that link.
    """

    max_retries: int = 4
    base_timeout: float = 0.5
    backoff: float = 2.0
    max_timeout: float = 8.0
    buffer_size: int = 64

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_timeout <= 0:
            raise ValueError(
                f"base_timeout must be > 0, got {self.base_timeout}"
            )
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_timeout < self.base_timeout:
            raise ValueError(
                f"max_timeout ({self.max_timeout}) must be >= base_timeout "
                f"({self.base_timeout})"
            )
        if self.buffer_size < 1:
            raise ValueError(
                f"buffer_size must be >= 1, got {self.buffer_size}"
            )


class _Gap:
    """One open recovery episode toward a (sender, key) link."""

    __slots__ = ("missing", "retries", "timer")

    def __init__(self) -> None:
        self.missing: Set[int] = set()
        self.retries = 0
        self.timer = None


class RecoveryManager:
    """Per-node recovery state machine over an unreliable transport.

    Parameters
    ----------
    sim:
        The event engine, used for retry timers.
    transport:
        Used to send NACKs and retransmissions (overlay hops).
    node_id:
        The owning node's identifier.
    metrics:
        A :class:`~repro.metrics.collector.MetricsCollector` (or None)
        whose recovery counters this manager increments.
    config:
        :class:`RecoveryConfig` knobs.
    request_pull:
        Callback ``(key) -> None`` invoked on degradation; the node
        re-issues a query upstream so interest re-grafts and the cache
        refills through the normal first-time-update path.
    """

    __slots__ = (
        "_sim", "_transport", "_node_id", "_metrics", "config",
        "_request_pull", "_send_seq", "_sent", "_recv_high", "_gaps",
        "degraded_keys",
    )

    def __init__(
        self,
        sim,
        transport,
        node_id: NodeId,
        metrics,
        config: RecoveryConfig,
        request_pull: Callable[[str], None],
    ):
        self._sim = sim
        self._transport = transport
        self._node_id = node_id
        self._metrics = metrics
        self.config = config
        self._request_pull = request_pull
        # Sender side: next sequence number and bounded retransmission
        # buffer, both per (neighbor, key).
        self._send_seq: Dict[Tuple[NodeId, str], int] = {}
        self._sent: Dict[Tuple[NodeId, str], List[UpdateMessage]] = {}
        # Receiver side: highest sequence seen per (sender, key), plus
        # open gaps awaiting retransmission.
        self._recv_high: Dict[Tuple[NodeId, str], int] = {}
        self._gaps: Dict[Tuple[NodeId, str], _Gap] = {}
        #: Keys this node has given up recovering over a broken link and
        #: served (or refreshed) through a degraded pull instead.  The
        #: convergence audit excuses these.
        self.degraded_keys: Set[str] = set()

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def stamp(self, neighbor: NodeId, update: UpdateMessage) -> None:
        """Assign the next (neighbor, key) sequence and buffer the envelope.

        Called by the node immediately before every per-neighbor
        transport send of a CUP (non-routed) update.
        """
        link = (neighbor, update.key)
        seq = self._send_seq.get(link, 0) + 1
        self._send_seq[link] = seq
        update.hop_seq = seq
        buffer = self._sent.get(link)
        if buffer is None:
            self._sent[link] = [update]
        else:
            buffer.append(update)
            if len(buffer) > self.config.buffer_size:
                del buffer[0]

    def handle_nack(self, message: NackMessage, child: NodeId) -> None:
        """Retransmit buffered envelopes a child reports as missing.

        Envelopes evicted from the bounded buffer cannot be resent; the
        child's retry/degradation machinery copes.  Retransmissions are
        fresh forks so per-branch hop counters stay independent.
        """
        buffer = self._sent.get((child, message.key))
        if buffer is None:
            return
        wanted = set(message.missing)
        for envelope in buffer:
            if envelope.hop_seq in wanted:
                self._transport.send(self._node_id, child, envelope.fork())

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def note_received(self, sender: NodeId, key: str, seq: int) -> bool:
        """Record an arriving sequence number; return True to apply it.

        Advances the watermark on in-order or ahead-of-order arrivals
        (opening a gap for any skipped numbers), fills gap members on
        late arrivals, and suppresses duplicates (returns False).
        """
        link = (sender, key)
        high = self._recv_high.get(link, 0)
        if seq > high:
            self._recv_high[link] = seq
            if seq > high + 1:
                self._open_gap(link, range(high + 1, seq))
            return True
        gap = self._gaps.get(link)
        if gap is not None and seq in gap.missing:
            gap.missing.discard(seq)
            metrics = self._metrics
            if metrics is not None:
                metrics.recovered_updates += 1
            if not gap.missing:
                self._close_gap(link)
            return True
        metrics = self._metrics
        if metrics is not None:
            metrics.duplicates_suppressed += 1
        return False

    def _open_gap(self, link: Tuple[NodeId, str], missing) -> None:
        gap = self._gaps.get(link)
        fresh = gap is None
        if fresh:
            gap = _Gap()
            self._gaps[link] = gap
        new = [seq for seq in missing if seq not in gap.missing]
        gap.missing.update(new)
        metrics = self._metrics
        if metrics is not None:
            metrics.gaps_detected += len(new)
        self._send_nack(link, gap)
        if fresh:
            self._arm_timer(link, gap)

    def _close_gap(self, link: Tuple[NodeId, str]) -> None:
        gap = self._gaps.pop(link, None)
        if gap is not None and gap.timer is not None:
            gap.timer.cancel()
            gap.timer = None

    def _send_nack(self, link: Tuple[NodeId, str], gap: _Gap) -> None:
        sender, key = link
        if not self._transport.is_registered(self._node_id):
            # This node itself departed or crashed with the timer armed;
            # a corpse sends nothing.
            return
        if not self._transport.is_registered(sender):
            return
        nack = NackMessage(key, tuple(sorted(gap.missing)))
        self._transport.send(self._node_id, sender, nack)
        metrics = self._metrics
        if metrics is not None:
            metrics.nacks_sent += 1

    def _arm_timer(self, link: Tuple[NodeId, str], gap: _Gap) -> None:
        config = self.config
        timeout = min(
            config.base_timeout * (config.backoff ** gap.retries),
            config.max_timeout,
        )
        gap.timer = self._sim.schedule(timeout, self._retry, link)

    def _retry(self, link: Tuple[NodeId, str]) -> None:
        gap = self._gaps.get(link)
        if gap is None:
            return
        gap.timer = None
        if gap.retries >= self.config.max_retries:
            self._degrade(link)
            return
        gap.retries += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.recovery_retries += 1
        self._send_nack(link, gap)
        self._arm_timer(link, gap)

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------

    def _degrade(self, link: Tuple[NodeId, str]) -> None:
        """Give up on a gap: record the degraded read, pull instead."""
        self._close_gap(link)
        _sender, key = link
        self.degraded_keys.add(key)
        metrics = self._metrics
        if metrics is not None:
            metrics.degraded_reads += 1
        self._request_pull(key)

    def note_refreshed(self, key: str) -> None:
        """A fresh response landed for ``key``: lift its degraded mark.

        The mark exists to excuse staleness *while the pull is in
        flight*; once the re-query's response (or a maintenance update
        answering the pending flag) refills the cache, the key is a
        first-class subscriber again and the convergence audit must hold
        it to the normal standard.  Leaving the mark in place forever
        would excuse any later silent staleness — exactly the failure
        mode the audit exists to catch.
        """
        if key in self.degraded_keys:
            self.degraded_keys.discard(key)
            metrics = self._metrics
            if metrics is not None:
                metrics.degraded_repromotions += 1

    def prune_peers(self, alive) -> None:
        """React to membership change: drop state toward departed peers.

        Gaps waiting on a departed sender can never be filled by
        retransmission — degrade immediately rather than burning the
        retry budget against a dead link.  Sender-side buffers toward
        departed children are garbage.
        """
        alive = set(alive)
        for link in [l for l in self._gaps if l[0] not in alive]:
            self._degrade(link)
        for registry in (self._recv_high, self._sent, self._send_seq):
            for link in [l for l in registry if l[0] not in alive]:
                del registry[link]

    # ------------------------------------------------------------------
    # Durable state (live-node persistence)
    # ------------------------------------------------------------------

    def export_state(self, links=None) -> dict:
        """Plain-data snapshot of the state a restart must not forget
        (of the ``(peer, key)`` pairs in ``links`` alone, when given: the
        slice the node store appends for the keys a tick dirtied).

        Three pieces survive a process death; everything else is
        legitimately volatile:

        * ``send_seq`` — reusing per-(neighbor, key) sequence numbers
          after a restart would make this node's fresh updates look like
          duplicates to every downstream watermark, so they would be
          silently suppressed until the counter caught up.
        * ``recv_high`` — forgetting receive watermarks would make the
          first in-order arrival after restart look like a giant gap and
          trigger a NACK storm for updates that were already applied.
        * ``degraded`` — keys this node already gave up recovering; open
          gaps are folded in, because their retry timers die with the
          process and the post-restore reconcile pull is what actually
          refills them.

        Retransmission buffers are deliberately dropped: a NACK arriving
        after restart simply finds nothing to resend, and the child's
        own retry/degradation machinery copes — exactly as it does when
        the bounded buffer evicts.
        """
        degraded = set(self.degraded_keys)
        degraded.update(key for _sender, key in self._gaps)
        send_seq, recv_high = self._send_seq, self._recv_high
        if links is None:
            send_seq, recv_high = dict(send_seq), dict(recv_high)
        else:
            degraded.intersection_update(key for _peer, key in links)
            send_seq = {l: send_seq[l] for l in links if l in send_seq}
            recv_high = {l: recv_high[l] for l in links if l in recv_high}
        return {
            "send_seq": send_seq,
            "recv_high": recv_high,
            "degraded": sorted(degraded),
        }

    def import_state(self, state: dict) -> None:
        """Install an :meth:`export_state` snapshot (max-merge semantics).

        Watermarks and sequences only ever move forward, so a restore
        into a manager that has already seen traffic keeps whichever
        side is further along.
        """
        for link, seq in state.get("send_seq", {}).items():
            link = (link[0], link[1])
            if seq > self._send_seq.get(link, 0):
                self._send_seq[link] = seq
        for link, seq in state.get("recv_high", {}).items():
            link = (link[0], link[1])
            if seq > self._recv_high.get(link, 0):
                self._recv_high[link] = seq
        self.degraded_keys.update(state.get("degraded", ()))

    # ------------------------------------------------------------------
    # Introspection (tests, invariant audits)
    # ------------------------------------------------------------------

    def open_gaps(self) -> Dict[Tuple[NodeId, str], Tuple[int, ...]]:
        """Snapshot of unresolved gaps: link -> sorted missing seqs."""
        return {
            link: tuple(sorted(gap.missing))
            for link, gap in self._gaps.items()
        }

    def watermark(self, sender: NodeId, key: str) -> int:
        """Highest sequence seen from ``sender`` for ``key`` (0 if none)."""
        return self._recv_high.get((sender, key), 0)
