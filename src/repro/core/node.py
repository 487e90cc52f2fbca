"""The CUP node state machine (§2.5 - §2.7 of the paper).

One :class:`CupNode` plays every role a peer plays:

* **querying node** — local clients post queries via
  :meth:`CupNode.post_local_query`;
* **intermediate node** — forwards queries upstream, caches index
  entries, answers from fresh cache, forwards updates to interested
  neighbors, and issues clear-bit messages per its cut-off policy;
* **authority node** — owns a slice of the global index
  (:class:`~repro.replicas.authority.AuthorityIndex`), absorbs replica
  control traffic, and originates the update streams that flow down the
  CUP trees.

Standard caching — the paper's baseline — is this same state machine with
``persistent_interest=False``: interest bits are dropped as soon as the
first-time response is delivered, so no maintenance update ever
propagates and no clear-bit is ever needed.  That matches the paper's
observation that a push level of zero *is* standard caching.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Optional

from repro.core.cache import NO_ITEMS, NO_NEIGHBORS, KeyState, NodeCache, with_neighbor
from repro.core.channels import CapacityConfig, OutgoingUpdateChannels
from repro.core.messages import (
    ClearBitMessage,
    QueryMessage,
    ReplicaMessage,
    UpdateMessage,
    UpdateType,
)
from repro.core.policies import CutoffPolicy
from repro.core.recovery import RecoveryConfig, RecoveryManager
from repro.metrics.collector import MetricsCollector
from repro.overlay.base import NodeId, Overlay
from repro.replicas.authority import NO_AUTHORITY, AuthorityIndex
from repro.sim.engine import Simulator
from repro.sim.network import Message, Transport

if TYPE_CHECKING:  # annotations only: a live node runs without numpy
    import numpy as np


def require_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite
    number > 0."""
    try:
        valid = math.isfinite(value) and value > 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclasses.dataclass(eq=False, slots=True)
class NodeEnv:
    """What every node of one network shares: substrate and settings.

    A :class:`CupNode` holds only what differs between nodes and reads
    the rest here, so a network builds one env and hands it to every
    node (a harness that wants per-node random streams builds one env
    per node instead).

    Parameters
    ----------
    sim, transport, overlay:
        The substrate: clock, message transport, routing.
    policy:
        The cut-off policy (§3.4) shared by all nodes of a run.
    metrics:
        Run-wide counter collector.
    persistent_interest:
        ``True`` for CUP (interest bits persist until cut off);
        ``False`` for the standard-caching baseline (bits drop after
        each response, so updates never propagate).
    coalesce:
        ``True`` for CUP: query bursts for a key collapse into one
        upstream query (the Pending-First-Update mechanism) and the
        response fans out along interest bits.  ``False`` for the
        standard-caching baseline: every query is forwarded
        individually, carries the chain of nodes it traversed (its open
        connections), and its response retraces that chain hop by hop —
        the per-query connection model §4 contrasts CUP against.
    replica_independent_cutoff:
        §3.6: when ``True``, cut-off decisions trigger only on updates
        for the key's *designated* replica, making the decision
        independent of how many replicas feed updates; when ``False``
        the naive variant evaluates on every update arrival.
    initial_capacity:
        Initial outgoing update channel capacity (§2.8) of every node;
        a node replaces its own at runtime (:meth:`CupNode.set_capacity`).
    capacity_rng:
        Random stream for fractional-capacity and refresh-sampling coin
        flips.
    pfu_timeout:
        Seconds after which an unanswered Pending-First-Update flag stops
        coalescing and the next query re-pushes upstream.  Recovers from
        responses lost to departed nodes.
    track_justification:
        Record per-update justification windows (§3.1 accounting).
    refresh_aggregation_window:
        §3.6 overhead-reduction technique: when set, the authority
        buffers replica refreshes for a key and, after this many seconds,
        propagates them batched as a single update.  Trades a bounded
        staleness window for update traffic.
    refresh_sample_fraction:
        §3.6's other technique: the authority propagates only this
        fraction of replica refreshes (suppressed ones still update the
        local directory, so correctness is unaffected — downstream
        caches just see fewer, staggered refreshes).
    channel_priorities:
        Update-type priority table of rate-limited channels.
    recovery_config:
        Equips every node with the unreliable-transport recovery layer
        when given.
    """

    sim: Simulator
    transport: Transport
    overlay: Overlay
    policy: CutoffPolicy
    metrics: MetricsCollector
    persistent_interest: bool = True
    coalesce: bool = True
    replica_independent_cutoff: bool = True
    initial_capacity: Optional[CapacityConfig] = None
    capacity_rng: Optional[np.random.Generator] = None
    pfu_timeout: float = 30.0
    track_justification: bool = True
    refresh_aggregation_window: Optional[float] = None
    refresh_sample_fraction: float = 1.0
    channel_priorities: Optional[dict] = None
    recovery_config: Optional[RecoveryConfig] = None
    # Set by attach_invariants(); the hot paths pay one attribute load +
    # None test per probe site, so leaving invariants off costs nothing.
    invariant_probe: Optional[object] = dataclasses.field(
        default=None, init=False)
    # Policies that inherit the base may_forward (always True — every
    # cut-off family except explicit push-level caps) let the fan-out
    # skip two method calls per forwarded update.
    forward_always: bool = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.validate(
            self.pfu_timeout, self.refresh_aggregation_window,
            self.refresh_sample_fraction,
        )
        self.forward_always = (
            type(self.policy).may_forward is CutoffPolicy.may_forward
        )

    @staticmethod
    def validate(
        pfu_timeout: float,
        refresh_aggregation_window: Optional[float],
        refresh_sample_fraction: float,
    ) -> None:
        """Reject node settings no node could run with (``ValueError``)."""
        require_positive("pfu_timeout", pfu_timeout)
        if refresh_aggregation_window is not None:
            require_positive(
                "refresh_aggregation_window", refresh_aggregation_window
            )
        if not 0.0 < refresh_sample_fraction <= 1.0:
            raise ValueError(
                "refresh_sample_fraction must be in (0, 1], got "
                f"{refresh_sample_fraction!r}"
            )


class CupNode:
    """One peer: query handling, cache maintenance, authority duties.

    ``node_id`` is the peer's identity; everything its peers share lives
    in ``env`` (:class:`NodeEnv`).  The node itself holds its cache, its
    authority index (the shared empty ``NO_AUTHORITY`` until it first
    owns a key), outgoing update channels (``None`` while its capacity
    is unlimited), refresh buffers, and its keep-alive and recovery
    machinery when those are on.
    """

    __slots__ = (
        "node_id", "env", "cache", "authority_index", "channels",
        "_aggregation_buffers", "keepalive_monitor", "recovery",
    )

    def __init__(self, node_id: NodeId, env: NodeEnv):
        self.node_id = node_id
        self.env = env
        self.cache = NodeCache()
        self.authority_index: AuthorityIndex = NO_AUTHORITY
        self.channels: Optional[OutgoingUpdateChannels] = None
        if env.initial_capacity is not None:
            self.set_capacity(env.initial_capacity)
        self._aggregation_buffers: dict = NO_ITEMS
        # Unreliable-transport survival layer: None on the default
        # reliable path (zero hot-path cost beyond one None test).  With
        # recovery on, updates are stamped with per-neighbor sequence
        # numbers at transmit time, so every push goes child by child
        # (see _push_updates).
        if env.recovery_config is not None:
            self.recovery = RecoveryManager(
                env.sim, env.transport, node_id, env.metrics,
                env.recovery_config, self._recover_by_pull,
            )
        else:
            self.recovery = None
        # Attached by CupNetwork.enable_keepalive(); None otherwise.
        self.keepalive_monitor = None

    # ------------------------------------------------------------------
    # Transport entry point
    # ------------------------------------------------------------------

    def receive(self, message: Message, sender: NodeId) -> None:
        """Dispatch one delivered message (transport handler).

        Updates are tested first: they dominate every CUP workload (the
        maintenance stream fans out along the whole subscription tree
        while queries stop at the first fresh cache).
        """
        kind = message.kind
        if self.keepalive_monitor is not None and sender is not None:
            # Any traffic proves the sender alive (§2.1 keep-alives
            # effectively piggyback on protocol messages).
            self.keepalive_monitor.note_heard(sender)
        if kind == "update":
            self._handle_update(message, sender)
        elif kind == "query":
            self._handle_query(message, sender)
        elif kind == "clear_bit":
            self._handle_clear_bit(message, sender)
        elif kind == "keepalive":
            return
        elif kind == "nack":
            if self.recovery is not None:
                self.recovery.handle_nack(message, sender)
        elif kind == "replica":
            self._handle_replica(message)
        else:  # pragma: no cover - guards future message kinds
            raise ValueError(f"unhandled message kind: {kind!r}")

    # ------------------------------------------------------------------
    # Queries (§2.5)
    # ------------------------------------------------------------------

    def post_local_query(self, key: str) -> bool:
        """A local client asks for ``key``; returns True on immediate hit.

        A miss leaves an open local connection that the eventual
        first-time update answers (the paper's asynchronous response
        path); the posting itself never blocks.
        """
        env = self.env
        metrics = env.metrics
        metrics.queries_posted += 1
        answered = self._process_query(key, from_neighbor=None)
        if answered:
            metrics.local_hits += 1
        if env.invariant_probe is not None:
            env.invariant_probe.query_posted(self.node_id, key, answered)
        return answered

    def _handle_query(self, message: QueryMessage, sender: NodeId) -> None:
        self.env.metrics.neighbor_queries += 1
        self._process_query(
            message.key, from_neighbor=sender, path=message.path
        )

    def _process_query(
        self,
        key: str,
        from_neighbor: Optional[NodeId],
        path: Optional[tuple] = None,
    ) -> bool:
        """Common query path; returns True when answered immediately.

        ``path`` is the open-connection chain carried by standard-caching
        queries (``None`` under CUP).
        """
        env = self.env
        metrics = env.metrics
        now = env.sim.now
        state = self.cache.get_or_create(key)
        # "In each of the cases, the node updates its popularity measure
        # for K" (§2.5) — queries from neighbors and local clients alike.
        state.popularity += 1
        if env.track_justification and state.justification_deadlines:
            justified, unjustified = state.settle_justification(now)
            metrics.justified_updates += justified
            metrics.unjustified_updates += unjustified

        # Hit paths materialize the answering entries only when a
        # neighbor needs them on the wire; a local hit — the overwhelming
        # majority of queries in a warm network — answers without
        # building the entry tuple at all.
        if self._is_authority(key, state):
            metrics.authority_answers += 1
            if from_neighbor is not None:
                entries = tuple(self.authority_index.fresh_entries(key, now))
                self._answer_query(state, entries, from_neighbor, path, now)
            return True
        if state.has_fresh(now):
            # Case 1: fresh entries cached — answer from here.
            metrics.cache_answers += 1
            if from_neighbor is not None:
                entries = tuple(state.fresh_entries(now))
                self._answer_query(state, entries, from_neighbor, path, now)
            return True

        # A miss: classify (first-time vs freshness) at the posting node.
        if from_neighbor is None:
            metrics.misses += 1
            if state.entries:
                metrics.freshness_misses += 1
            else:
                metrics.first_time_misses += 1
            if state.local_waiters == 0:
                state.pending_since = now
            state.local_waiters += 1

        if not env.coalesce:
            # Standard caching: every query travels on its own open
            # connection — forward it regardless of what is in flight.
            self._push_query_upstream(key, state, self._extend_path(path))
            return False

        if from_neighbor is not None:
            state.register_interest(from_neighbor)
            state.waiting = with_neighbor(state.waiting, from_neighbor)
        if state.pending_first_update:
            if now - state.pending_since <= env.pfu_timeout:
                # Cases 2/3 with the flag already set: coalesce.
                metrics.coalesced_queries += 1
                return False
            # The outstanding query evidently died with a departed node;
            # fall through and push a fresh one.
        state.pending_first_update = True
        state.pending_since = now
        state.clear_bit_sent = False
        self._push_query_upstream(key, state, None)
        return False

    def _answer_query(
        self,
        state: KeyState,
        entries: tuple,
        from_neighbor: NodeId,
        path: Optional[tuple],
        now: float,
    ) -> None:
        """Send a first-time update answering one neighbor's query."""
        key = state.key
        env = self.env
        if env.coalesce:
            state.register_interest(from_neighbor)
            response = UpdateMessage(key, UpdateType.FIRST_TIME, entries, None, now)
            self._push_updates((from_neighbor,), response)
            if not env.persistent_interest:
                state.clear_interest(from_neighbor)
        else:
            # The response retraces the query's open-connection chain;
            # ``path`` ends at the neighbor that just forwarded to us.
            route = path if path is not None else ()
            if route and route[-1] == from_neighbor:
                route = route[:-1]
            response = UpdateMessage(
                key, UpdateType.FIRST_TIME, entries, None, now, route=route
            )
            env.transport.send(self.node_id, from_neighbor, response)

    def _extend_path(self, path: Optional[tuple]) -> tuple:
        return (*(path or ()), self.node_id)

    def _push_query_upstream(
        self, key: str, state: KeyState, path: Optional[tuple]
    ) -> None:
        parent = self._parent(key, state)
        env = self.env
        env.metrics.queries_forwarded += 1
        env.transport.send(self.node_id, parent, QueryMessage(key, path=path))

    # ------------------------------------------------------------------
    # Updates (§2.6)
    # ------------------------------------------------------------------

    def _handle_update(self, update: UpdateMessage, sender: NodeId) -> None:
        env = self.env
        now = env.sim.now
        probe = env.invariant_probe
        if probe is not None:
            probe.update_delivered(self.node_id, update, sender)
        metrics = env.metrics
        # Unreliable transport: account the hop sequence before anything
        # can drop the message (even an expired update advances the
        # watermark — its loss must not look like a gap), and suppress
        # duplicates before they touch the cache or cut-off logic.
        recovery = self.recovery
        if (
            recovery is not None
            and update.hop_seq is not None
            and update.route is None
            and not recovery.note_received(sender, update.key, update.hop_seq)
        ):
            return
        # Case 3: the update expired in flight — drop silently.
        if update.entries and update.expiry <= now:
            metrics.updates_dropped_expired += 1
            return
        key = update.key
        states = self.cache.states
        state = states.get(key)
        if state is None:
            state = states[key] = KeyState(key)
        update_type = update.update_type

        if update.route is not None:
            self._relay_open_connection_response(state, update)
            return

        if update_type == UpdateType.FIRST_TIME:
            self._accept_response(state, update, sender)
            return

        # Maintenance update: apply to the cache first.
        if update_type == UpdateType.DELETE:
            for entry in update.entries:
                if state.remove_entry(entry.replica_id) and probe is not None:
                    probe.entry_removed(self.node_id, key, entry.replica_id)
        else:
            carried = update.entries
            if len(carried) == 1:
                # Single-entry refresh/append — the overwhelmingly common
                # maintenance payload — applied inline.  This block is
                # KeyState.apply_entry verbatim (sequence guard + expiry
                # bound maintenance); a semantic change there MUST be
                # mirrored here, or single- and multi-entry updates
                # diverge in cache state.
                entry = carried[0]
                cached = state.entries
                current = cached.get(entry.replica_id)
                if current is None or current.sequence < entry.sequence:
                    cached[entry.replica_id] = entry
                    expires = entry.timestamp + entry.lifetime
                    if current is not None and len(cached) == 1:
                        # Sole entry replaced: both bounds are exact.
                        state.min_expires = state.max_expires = expires
                    elif (
                        current is not None
                        and expires < current.timestamp + current.lifetime
                    ):
                        # Shrinking replacement (theoretical): re-derive
                        # the expiry bounds, as KeyState.apply_entry.
                        state._recompute_expiry_bounds()
                    else:
                        if expires < state.min_expires:
                            state.min_expires = expires
                        if expires > state.max_expires:
                            state.max_expires = expires
                    if probe is not None:
                        probe.entry_applied(self.node_id, key, entry)
                else:
                    # A stale or duplicate update (older sequence than
                    # cached): it must not re-trigger cut-off logic or be
                    # re-forwarded, or reordered deliveries would echo
                    # through the tree.
                    metrics.updates_stale_discarded += 1
                    return
            else:
                applied = False
                for entry in carried:
                    if state.apply_entry(entry):
                        applied = True
                        if probe is not None:
                            probe.entry_applied(self.node_id, key, entry)
                if not applied:
                    metrics.updates_stale_discarded += 1
                    return

        if env.track_justification:
            deadlines = state.justification_deadlines
            if not deadlines:
                state.justification_deadlines = [update.expiry]
            else:
                if deadlines[0] < now:
                    metrics.unjustified_updates += (
                        state.expire_justification(now)
                    )
                if len(deadlines) < state.MAX_JUSTIFICATION_WINDOWS:
                    deadlines.append(update.expiry)

        # Cut-off trigger decision (one evaluation per maintenance
        # update): the naive variant triggers on every update, the
        # replica-independent fix (§3.6) only on updates for the key's
        # designated replica — so the decision rate does not scale with
        # the replica count.
        if not env.replica_independent_cutoff:
            triggering = True
        else:
            replica_id = update.replica_id
            if replica_id is None:
                triggering = True
            else:
                designated = state.designated_replica
                if designated is None:
                    state.designated_replica = replica_id
                    triggering = True
                else:
                    triggering = replica_id == designated
        if triggering:
            env.policy.observe_update(state)

        delivered: tuple = ()
        targets = state.interest
        if targets:
            # Receiving on behalf of interested neighbors: apply and push
            # (§2.6 case 2, "popularity high or some interest bits set").
            # The no-gate case — an ungated policy at full capacity over
            # a reliable transport, i.e. virtually every hop of a healthy
            # run — is inlined; anything that can gate, suppress, queue
            # or stamp takes the general path.
            if (
                env.forward_always
                and self.channels is None
                and recovery is None
            ):
                if sender is not None and sender in targets:
                    targets = tuple(t for t in targets if t != sender)
                if targets:
                    env.transport.send_fanout(self.node_id, targets, update)
                    delivered = targets
            else:
                delivered = self._forward_to_interested(
                    state, update, exclude=sender
                )
        elif triggering and not self._is_authority(key, state):
            distance = self._distance_for_policy(key, state)
            if not env.policy.should_keep_receiving(state, distance):
                self._send_clear_bit(key, state, toward=sender)

        # A maintenance update can double as the awaited response: if it
        # leaves us with fresh entries while the PFU flag is set, the
        # pending query is effectively answered.  Waiting neighbors the
        # interest-forward did not reach (push-level gate, capacity
        # suppression) get an ungated first-time response instead —
        # responses always flow, whatever the maintenance plane does.
        if state.pending_first_update and state.has_fresh(now):
            state.pending_first_update = False
            if recovery is not None:
                # A maintenance update doubling as the response also
                # satisfies a degraded pull for this key.
                recovery.note_refreshed(key)
            self._answer_local_waiters(state)
            if state.waiting:
                starved = tuple(
                    n for n in state.waiting
                    if n != sender and n not in delivered
                )
                if starved:
                    response = UpdateMessage(
                        key, UpdateType.FIRST_TIME,
                        tuple(state.fresh_entries(now)), None, now,
                    )
                    self._push_updates(starved, response)
                state.waiting = NO_NEIGHBORS

        if triggering:
            # Popularity counts queries between consecutive (triggering)
            # updates; the interval closes here.
            state.popularity = 0

    def _relay_open_connection_response(
        self, state: KeyState, update: UpdateMessage
    ) -> None:
        """Standard caching: a response retracing its query's connections.

        Every hop caches the carried entries (path caching with
        expiration times — the baseline the paper compares against) and
        forwards to the next node of the recorded chain; the final node
        is the query's poster.
        """
        env = self.env
        probe = env.invariant_probe
        for entry in update.entries:
            if state.apply_entry(entry) and probe is not None:
                probe.entry_applied(self.node_id, state.key, entry)
        if env.track_justification:
            env.metrics.justified_updates += 1
        if update.route:
            forwarded = update.fork()
            forwarded.route = update.route[:-1]
            env.transport.send(self.node_id, update.route[-1], forwarded)
        else:
            self._answer_local_waiters(state)

    def _accept_response(
        self, state: KeyState, update: UpdateMessage, sender: NodeId
    ) -> None:
        """A first-time update: the asynchronous answer to pushed queries.

        The response fans out to the neighbors whose queries were
        coalesced behind the Pending-First-Update flag — not to every
        subscriber: long-subscribed neighbors that asked nothing are
        served by the maintenance stream, and broadcasting responses to
        them would double-charge the miss path.
        """
        env = self.env
        probe = env.invariant_probe
        for entry in update.entries:
            if state.apply_entry(entry) and probe is not None:
                probe.entry_applied(self.node_id, state.key, entry)
        if env.track_justification:
            # First-time updates are always justified (§3.1): they carry
            # a response toward the node that issued the query.
            env.metrics.justified_updates += 1
        state.pending_first_update = False
        if self.recovery is not None and update.entries:
            # The degraded pull is answered: the key re-earns full
            # convergence scrutiny.
            self.recovery.note_refreshed(state.key)
        if state.designated_replica is None and update.entries:
            # Designate the cut-off trigger replica (§3.6) from the first
            # response; min() keeps the choice order-independent.
            state.designated_replica = min(
                e.replica_id for e in update.entries
            )
        self._answer_local_waiters(state)
        if state.waiting:
            self._push_updates(
                tuple(n for n in state.waiting if n != sender), update
            )
            state.waiting = NO_NEIGHBORS
        if not env.persistent_interest:
            state.clear_all_interest()
            return
        # A response is an update arrival: the popularity interval
        # ("queries since the last update", §2.3) closes here, and the
        # cut-off policy gets its look — an aggressive policy (e.g.
        # linear with a high alpha·D threshold) may cut off right after
        # being answered, which is exactly the behaviour §3.4 measures.
        env.policy.observe_update(state)
        if not state.interest and not self._is_authority(state.key, state):
            distance = self._distance_for_policy(state.key, state)
            if not env.policy.should_keep_receiving(state, distance):
                self._send_clear_bit(state.key, state, toward=sender)
        state.popularity = 0

    def _answer_local_waiters(self, state: KeyState) -> None:
        if state.local_waiters:
            env = self.env
            metrics = env.metrics
            metrics.answers_delivered += state.local_waiters
            metrics.answer_delay_total += (
                env.sim.now - state.pending_since
            ) * state.local_waiters
            metrics.answer_delay_count += state.local_waiters
            if env.invariant_probe is not None:
                env.invariant_probe.waiters_answered(
                    self.node_id, state.key, state.local_waiters
                )
            state.local_waiters = 0

    # ------------------------------------------------------------------
    # Forwarding and control flow downstream
    # ------------------------------------------------------------------

    def _forward_to_interested(
        self,
        state: KeyState,
        update: UpdateMessage,
        exclude: Optional[NodeId] = None,
    ) -> tuple:
        """Push an update to every interested neighbor.

        Returns the neighbors the update actually went to (a tuple in
        deterministic fan-out order); a push-level gate or capacity
        suppression removes targets from it (callers use this to rescue
        waiting queriers with an ungated first-time response).

        Targets are offered in the same deterministic order whichever
        way :meth:`_push_updates` sends them (so capacity coin flips
        consume the random stream identically).
        """
        targets = state.interest
        if not targets:
            return ()
        env = self.env
        # The push-level gate (§3.3) caps *propagation* — maintenance
        # updates only.  First-time updates are query responses; blocking
        # them would break query resolution itself (a push level of 0
        # must degrade to standard caching, not to silence).
        if not env.forward_always and update.update_type != UpdateType.FIRST_TIME and not env.policy.may_forward(
            self._distance_for_forwarding(state)
        ):
            env.metrics.updates_suppressed += len(
                [t for t in targets if t != exclude]
            )
            return ()
        if exclude is not None and exclude in targets:
            targets = tuple(t for t in targets if t != exclude)
        delivered = self._push_updates(targets, update)
        suppressed = len(targets) - len(delivered)
        if suppressed:
            env.metrics.updates_suppressed += suppressed
        return delivered

    def _push_updates(self, targets: tuple, update: UpdateMessage) -> tuple:
        """Offer one update to many neighbors; returns those it reached.

        When nothing can suppress, queue or stamp the sends (no capacity
        limit, so no channels, and no recovery layer) the transport fans
        the shared payload out directly.  With recovery on, each neighbor
        gets its own stamped copy; under a limit, its own channel offer,
        preserving per-child coin flip order and queue accounting.
        """
        if not targets:
            return ()
        channels = self.channels
        if channels is None:
            if self.recovery is None:
                self.env.transport.send_fanout(self.node_id, targets, update)
            else:
                transmit = self._transmit_update
                for neighbor in targets:
                    transmit(neighbor, update.fork())
            return targets
        delivered = []
        push = channels.push
        for neighbor in targets:
            if push(neighbor, update.fork()):
                delivered.append(neighbor)
        return tuple(delivered)

    def _transmit_update(self, neighbor: NodeId, update: UpdateMessage) -> None:
        """Channel drain callback: put one update on the wire."""
        recovery = self.recovery
        if recovery is not None and update.route is None:
            recovery.stamp(neighbor, update)
        self.env.transport.send(self.node_id, neighbor, update)

    def _recover_by_pull(self, key: str) -> None:
        """Degraded read: refill the cache through the query path.

        Invoked by the recovery manager after retry exhaustion or an
        upstream departure.  Re-issuing a query upstream re-grafts this
        node's interest along the chain (every forwarding hop sets its
        bit), so the subscription tree self-heals and the eventual
        first-time response replaces whatever updates were lost.
        """
        env = self.env
        if not env.transport.is_registered(self.node_id):
            # The owner itself departed/crashed with a retry timer still
            # armed; there is nobody to pull for.
            return
        state = self.cache.get_or_create(key)
        if self._is_authority(key, state):
            return
        now = env.sim.now
        if (
            state.pending_first_update
            and now - state.pending_since <= env.pfu_timeout
        ):
            # A pull is already in flight; its response covers this gap.
            return
        state.pending_first_update = True
        state.pending_since = now
        state.clear_bit_sent = False
        self._push_query_upstream(key, state, None)

    def _send_clear_bit(
        self, key: str, state: KeyState, toward: Optional[NodeId]
    ) -> None:
        """Cut off the incoming update supply for ``key`` (§2.7)."""
        if state.clear_bit_sent:
            return
        target = toward if toward is not None else self._parent(key, state)
        if target is None:
            return
        state.clear_bit_sent = True
        env = self.env
        env.metrics.clear_bits_sent += 1
        env.transport.send(self.node_id, target, ClearBitMessage(key))

    def _handle_clear_bit(self, message: ClearBitMessage, sender: NodeId) -> None:
        state = self.cache.get(message.key)
        if state is None:
            return
        state.clear_interest(sender)
        if state.interest or state.pending_first_update:
            return
        if self._is_authority(message.key, state):
            return
        # "If the node's popularity measure for K is low and all of its
        # interest bits are clear, the node also pushes a Clear-Bit" —
        # the cascade toward the authority (§2.7).
        distance = self._distance_for_policy(message.key, state)
        if not self.env.policy.should_keep_receiving(state, distance):
            self._send_clear_bit(message.key, state, toward=None)

    # ------------------------------------------------------------------
    # Authority duties
    # ------------------------------------------------------------------

    def _handle_replica(self, message: ReplicaMessage) -> None:
        env = self.env
        now = env.sim.now
        metrics = env.metrics
        event = message.event.value
        if event == "birth":
            metrics.replica_births += 1
        elif event == "refresh":
            metrics.replica_refreshes += 1
        else:
            metrics.replica_deaths += 1
        update = self._own_authority().apply_replica_message(message, now)
        if update is None:
            return
        if update.update_type == UpdateType.REFRESH:
            # §3.6 overhead-reduction techniques (refreshes only —
            # deletes prevent errors and appends add capacity, so they
            # always propagate promptly).
            if env.refresh_sample_fraction < 1.0:
                if env.capacity_rng is None:
                    raise RuntimeError(
                        "refresh sampling requires an rng; pass one at "
                        "construction"
                    )
                if env.capacity_rng.random() >= env.refresh_sample_fraction:
                    metrics.updates_suppressed += 1
                    return
            if env.refresh_aggregation_window is not None:
                self._buffer_refresh(update)
                return
        state = self.cache.get_or_create(message.key)
        self._forward_to_interested(state, update)

    def _buffer_refresh(self, update: UpdateMessage) -> None:
        """Hold a refresh; flush the key's batch when the window closes.

        "When a refresh arrives for one replica, the authority node
        waits a threshold amount of time for other updates for the same
        key to arrive.  It then batches all updates that arrive within
        that time and propagates them together as one update." (§3.6)
        """
        buffers = self._aggregation_buffers
        buffer = buffers.get(update.key)
        if buffer is not None:
            buffer.append(update)
            return
        if not buffers:
            buffers = self._aggregation_buffers = {}
        buffers[update.key] = [update]
        env = self.env
        env.sim.schedule(
            env.refresh_aggregation_window, self._flush_refresh_buffer,
            update.key,
        )

    def _flush_refresh_buffer(self, key: str) -> None:
        buffered = self._aggregation_buffers.pop(key, None)
        if not buffered:
            return
        now = self.env.sim.now
        # Latest version per replica; drop anything that expired while
        # buffered (possible only with windows near the entry lifetime).
        latest: dict = {}
        for update in buffered:
            for entry in update.entries:
                current = latest.get(entry.replica_id)
                if current is None or current.sequence < entry.sequence:
                    latest[entry.replica_id] = entry
        entries = tuple(
            e for e in latest.values() if e.is_fresh(now)
        )
        if not entries:
            return
        batched = UpdateMessage(
            key=key,
            update_type=UpdateType.REFRESH,
            entries=entries,
            replica_id=min(e.replica_id for e in entries),
            issued_at=now,
        )
        state = self.cache.get_or_create(key)
        self._forward_to_interested(state, batched)

    def sweep_local_index(self) -> int:
        """Failure detection: purge entries of silent replicas (§2.4).

        Returns the number of entries deleted; each deletion propagates
        to interested neighbors like any other delete.
        """
        env = self.env
        deletes = self.authority_index.sweep_expired(env.sim.now)
        for update in deletes:
            env.metrics.failure_detections += 1
            state = self.cache.get_or_create(update.key)
            self._forward_to_interested(state, update)
        return len(deletes)

    # ------------------------------------------------------------------
    # Routing helpers (epoch-cached)
    # ------------------------------------------------------------------

    def _is_authority(self, key: str, state: KeyState) -> bool:
        """Epoch-cached "am I the authority for this key?".

        Cached on the KeyState itself (not a single per-node slot), so a
        multi-key workload never thrashes the memo; hot-path lookups
        after the first per epoch are two attribute reads.
        """
        overlay = self.env.overlay
        epoch = getattr(overlay, "epoch", 0)
        if state.authority_epoch != epoch:
            state.is_authority_here = overlay.authority(key) == self.node_id
            state.authority_epoch = epoch
        return state.is_authority_here

    def _parent(self, key: str, state: KeyState) -> Optional[NodeId]:
        overlay = self.env.overlay
        epoch = getattr(overlay, "epoch", 0)
        if state.parent_epoch != epoch:
            state.parent = overlay.next_hop(self.node_id, key)
            state.parent_epoch = epoch
        return state.parent

    def _distance_for_policy(self, key: str, state: KeyState) -> int:
        if not self.env.policy.needs_distance:
            return 0
        return self._distance(key, state)

    def _distance_for_forwarding(self, state: KeyState) -> int:
        if not self.env.policy.needs_distance:
            return 0
        return self._distance(state.key, state)

    def _distance(self, key: str, state: KeyState) -> int:
        overlay = self.env.overlay
        epoch = getattr(overlay, "epoch", 0)
        if state.distance_epoch != epoch:
            state.distance = overlay.distance(self.node_id, key)
            state.distance_epoch = epoch
        return state.distance

    # ------------------------------------------------------------------
    # Maintenance / churn support
    # ------------------------------------------------------------------

    def _own_authority(self) -> AuthorityIndex:
        """The authority index, made private before its first write."""
        index = self.authority_index
        if index is NO_AUTHORITY:
            index = self.authority_index = AuthorityIndex()
        return index

    def set_capacity(self, capacity: CapacityConfig) -> None:
        """Change outgoing update capacity at runtime (§3.7 faults).

        A node holds channels only while a limit is imposed: the first
        limit builds them, and lifting it flushes what they queued and
        drops them again.
        """
        channels = self.channels
        if channels is not None:
            channels.set_capacity(capacity)
            if channels.unlimited:
                self.channels = None
        elif not capacity.unlimited():
            env = self.env
            self.channels = OutgoingUpdateChannels(
                env.sim, self._transmit_update, capacity=capacity,
                rng=env.capacity_rng, priorities=env.channel_priorities,
            )

    def gc(self) -> int:
        """Purge expired cache state; returns discarded key count."""
        return self.cache.gc(self.env.sim.now)

    def patch_after_churn(self, alive: set) -> None:
        """§2.9: drop departed neighbors from interest vectors."""
        self.cache.patch_interest_after_churn(alive)
        if self.recovery is not None:
            self.recovery.prune_peers(alive)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CupNode({self.node_id!r}, cached_keys={len(self.cache)}, "
            f"owned_keys={sum(1 for _ in self.authority_index.keys())})"
        )
