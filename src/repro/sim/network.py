"""Hop-by-hop message transport with per-link delays.

CUP messages (queries, updates, clear-bits) travel one overlay hop at a
time: every intermediate node *processes* the message and decides whether
and where to forward it.  The transport therefore only ever delivers
between direct neighbors, and all cost accounting (the paper measures cost
in hops) attaches here via send observers.

Replica-to-authority traffic (birth/refresh/deletion messages, §2.1) is
not overlay traffic and is not measured by the paper's cost model; it uses
:meth:`Transport.send_direct`, which bypasses links and observers.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.sim.engine import Simulator

NodeId = Any
SendObserver = Callable[[NodeId, NodeId, "Message"], None]
#: A drop rule sees every overlay-hop send and returns True to lose the
#: message in transit (the hop cost is still charged — bandwidth was
#: spent pushing bits into a dead link).
DropRule = Callable[[NodeId, NodeId, "Message"], bool]


class LinkFaults:
    """A probabilistic per-link fault model: loss, duplication, jitter.

    One spec covers every overlay-hop send while installed (see
    :meth:`Transport.add_link_faults`); each fault draws independently
    per *recipient*, so a fan-out to k children makes k loss decisions.

    Parameters
    ----------
    rng:
        Source of U(0, 1) draws (anything with a scalar ``random()``
        method — a numpy Generator or a
        :class:`~repro.sim.random.BufferedUniforms` wrapper).  Derive it
        from a dedicated :class:`~repro.sim.random.RandomStreams` name so
        fault draws never shift workload or capacity streams.
    loss:
        Probability a send vanishes in transit (hop cost still charged,
        like drop rules — bandwidth was spent).
    duplicate:
        Probability a surviving send is delivered twice.
    jitter:
        Maximum extra one-way delay (seconds); each surviving send adds
        ``U(0, 1) * jitter``.  Enough jitter lets later sends overtake
        earlier ones on the same link — the reorder fault.
    """

    __slots__ = ("rng", "loss", "duplicate", "jitter")

    def __init__(self, rng, loss: float = 0.0, duplicate: float = 0.0,
                 jitter: float = 0.0):
        for name, value in (("loss", loss), ("duplicate", duplicate)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if rng is None:
            raise ValueError("LinkFaults requires an rng")
        self.rng = rng
        self.loss = loss
        self.duplicate = duplicate
        self.jitter = jitter

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkFaults(loss={self.loss}, duplicate={self.duplicate}, "
            f"jitter={self.jitter})"
        )


class PartitionRule:
    """Drop rule blocking sends whose endpoints sit in different islands.

    A class rather than a closure so installed partitions survive the
    pickle round-trip of a checkpoint.  Nodes in no island (mid-partition
    joiners) communicate freely.
    """

    __slots__ = ("side",)

    def __init__(self, side: Dict[NodeId, int]):
        self.side = side

    def __call__(self, src: NodeId, dst: NodeId, message: "Message") -> bool:
        side = self.side
        a = side.get(src)
        b = side.get(dst)
        return a is not None and b is not None and a != b


class Message:
    """Base class for everything that travels over the transport.

    Subclasses set ``kind`` (a short string used by tracing and metric
    accounting) and add payload fields.  ``hops`` counts overlay hops
    traveled so far and is incremented by the transport on every link
    delivery, so handlers can read path lengths directly off the message.
    """

    kind = "message"
    __slots__ = ("hops",)

    def __init__(self) -> None:
        self.hops = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} kind={self.kind} hops={self.hops}>"


class MessageHandler(Protocol):
    """What the transport expects of a registered node."""

    def receive(self, message: Message, sender: NodeId) -> None:
        """Process a message delivered from direct neighbor ``sender``."""
        ...  # pragma: no cover - protocol definition


class Link:
    """A bidirectional overlay link with a fixed one-way delay."""

    __slots__ = ("a", "b", "delay")

    def __init__(self, a: NodeId, b: NodeId, delay: float):
        if a == b:
            raise ValueError(f"self-link at node {a!r}")
        if delay < 0:
            raise ValueError(f"negative link delay: {delay}")
        self.a = a
        self.b = b
        self.delay = delay

    def key(self) -> Tuple[NodeId, NodeId]:
        """Canonical (sorted) endpoint pair used as the registry key."""
        return (self.a, self.b) if repr(self.a) <= repr(self.b) else (self.b, self.a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.a!r}, {self.b!r}, delay={self.delay})"


class TransportCore:
    """Accounting and delivery shared by the simulator and the daemon.

    The paper's evaluation currency is the overlay hop, so the code that
    charges one exists exactly once: :meth:`_charge`.  A concrete
    transport adds only how a charged message travels — scheduled over
    simulated links (:class:`Transport`) or framed onto a TCP connection
    (:class:`~repro.net.transport.LiveTransport`) — and ends every
    journey in :meth:`_hand_over`.

    Messages to unregistered destinations are silently dropped and counted
    in :attr:`dropped`; this models delivery to a node that departed while
    the message was in flight.
    """

    def __init__(self) -> None:
        self._handlers: Dict[NodeId, MessageHandler] = {}
        self._send_observers: List[SendObserver] = []
        # The standard metrics collector, when attached via
        # attach_metrics(): its hop counters are incremented inline on
        # the send path instead of through a Python observer call per
        # hop.  Extra observers (invariant checkers, test probes) still
        # go through the _send_observers list.
        self._hop_collector = None
        self.sent = 0
        self.sent_direct = 0
        self.delivered = 0
        self.dropped = 0
        # Fault outcomes.  Only the simulator injects faults; the
        # counters live here because the invariant checker's
        # conservation audit reads them off either transport.
        self.blocked = 0
        self.lost = 0
        self.duplicated = 0
        self.reordered = 0

    def register(self, node_id: NodeId, handler: MessageHandler) -> None:
        """Attach a node.  Re-registering an id replaces its handler."""
        self._handlers[node_id] = handler

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node; in-flight messages to it will be dropped."""
        self._handlers.pop(node_id, None)

    def is_registered(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` currently has a handler attached."""
        return node_id in self._handlers

    def add_send_observer(self, observer: SendObserver) -> None:
        """Register a callback invoked on every overlay-hop send.

        Observers fire at *send* time (before propagation delay), once per
        hop, which is exactly the paper's hop-count accounting.
        """
        self._send_observers.append(observer)

    def attach_metrics(self, collector) -> None:
        """Wire the standard metrics collector's hop accounting inline.

        Counts the same hops, at the same instant, as
        ``add_send_observer(collector.on_send)`` would — but through
        direct counter increments on the send path rather than a Python
        call per hop.  At most one collector can be attached this way;
        anything else observing sends uses :meth:`add_send_observer`.
        """
        if self._hop_collector is not None:
            raise RuntimeError("a metrics collector is already attached")
        self._hop_collector = collector

    def _charge(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Account for one overlay hop, at send time.

        The hop is counted (observers fire) before anything can drop the
        message, and even if the destination later turns out to have
        departed — bandwidth was spent either way.
        """
        if src == dst:
            raise ValueError(f"node {src!r} attempted to send to itself")
        self.sent += 1
        message.hops += 1
        collector = self._hop_collector
        if collector is not None:
            kind = message.kind
            if kind == "update":
                collector._update_hops[message.update_type] += 1
            elif kind == "query":
                collector.query_hops += 1
            elif kind == "clear_bit":
                collector.clear_bit_hops += 1
        for observer in self._send_observers:
            observer(src, dst, message)

    def _hand_over(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """End of a journey: the receiver's handler, or a counted drop."""
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped += 1
            return
        self.delivered += 1
        handler.receive(message, src)


class Transport(TransportCore):
    """The simulator's transport: links, fault rules, scheduled delivery.

    Parameters
    ----------
    sim:
        Event engine used to schedule deliveries.
    default_delay:
        One-way delay applied to links created without an explicit delay
        and to sends between endpoints with no registered link (overlays
        that route by identifier, like Chord fingers, do not pre-register
        every edge).
    """

    def __init__(self, sim: Simulator, default_delay: float = 0.05):
        if default_delay < 0:
            raise ValueError(f"negative default delay: {default_delay}")
        super().__init__()
        self._sim = sim
        self.default_delay = default_delay
        # Directed delay registry: every registered link stores *both*
        # ``(a, b)`` and ``(b, a)``, so the send hot path is a single
        # dict probe — no Link construction, no canonicalization.
        self._delays: Dict[Tuple[NodeId, NodeId], float] = {}
        # Drop/heal rule layer (partitions, lossy links): rules are
        # consulted on every overlay-hop send while any is installed;
        # the registry is empty in the common case so the hot path pays
        # a single truthiness check.
        self._drop_rules: Dict[int, DropRule] = {}
        # Probabilistic fault layer (loss/duplication/jitter): like drop
        # rules, empty in the common case so the hot path pays one
        # truthiness check.  Handles share the same counter space as
        # drop-rule handles.
        self._fault_rules: Dict[int, LinkFaults] = {}
        # Highest scheduled arrival time per directed link, tracked only
        # while jitter faults are installed — a new send landing before
        # an earlier one on the same link is a reorder.
        self._arrival_high: Dict[Tuple[NodeId, NodeId], float] = {}
        self._rule_ids = itertools.count()

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node and its links; in-flight messages to it drop."""
        super().unregister(node_id)
        stale = [key for key in self._delays
                 if key[0] == node_id or key[1] == node_id]
        for key in stale:
            del self._delays[key]

    def add_link(self, a: NodeId, b: NodeId, delay: Optional[float] = None) -> Link:
        """Create (or replace) the bidirectional link between ``a`` and ``b``."""
        link = Link(a, b, self.default_delay if delay is None else delay)
        self._delays[(a, b)] = link.delay
        self._delays[(b, a)] = link.delay
        return link

    def remove_link(self, a: NodeId, b: NodeId) -> None:
        """Remove the link between ``a`` and ``b`` if present."""
        self._delays.pop((a, b), None)
        self._delays.pop((b, a), None)

    def link_delay(self, a: NodeId, b: NodeId) -> float:
        """One-way delay between ``a`` and ``b`` (default if unregistered)."""
        delay = self._delays.get((a, b))
        return delay if delay is not None else self.default_delay

    # ------------------------------------------------------------------
    # Drop/heal rules (partitions, lossy links)
    # ------------------------------------------------------------------

    def add_drop_rule(self, rule: DropRule) -> int:
        """Install a rule that can lose overlay sends in transit.

        Returns a handle for :meth:`remove_drop_rule`.  A blocked send is
        still charged its hop cost (observers fire before rules run);
        delivery is simply never scheduled, and :attr:`blocked` counts
        it.  Off-overlay control traffic (:meth:`send_direct`) is not
        subject to rules — it models out-of-band replica communication.
        """
        rule_id = next(self._rule_ids)
        self._drop_rules[rule_id] = rule
        return rule_id

    def remove_drop_rule(self, rule_id: int) -> None:
        """Heal: retire one rule.

        Raises ``KeyError`` for unknown or stale handles — a double heal
        is a scenario bug (the handle either never existed or was
        already retired), and silently ignoring it used to mask exactly
        that class of mistake.
        """
        try:
            del self._drop_rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown drop rule handle: {rule_id!r}") from None

    # ------------------------------------------------------------------
    # Probabilistic fault rules (loss, duplication, jitter/reorder)
    # ------------------------------------------------------------------

    def add_link_faults(self, faults: LinkFaults) -> int:
        """Install a probabilistic fault spec on every overlay-hop send.

        Returns a handle for :meth:`remove_link_faults`.  Faults draw
        from the spec's own rng (seed it from a dedicated stream) and
        apply *after* drop rules: a send blocked by a partition never
        reaches the fault layer.  Lost sends are still charged their hop
        cost, mirroring drop-rule semantics; :attr:`lost`,
        :attr:`duplicated`, and :attr:`reordered` count outcomes.
        :meth:`send_direct` traffic is exempt — it models out-of-band
        replica communication.
        """
        if not isinstance(faults, LinkFaults):
            raise TypeError(f"expected LinkFaults, got {type(faults).__name__}")
        rule_id = next(self._rule_ids)
        self._fault_rules[rule_id] = faults
        return rule_id

    def remove_link_faults(self, rule_id: int) -> None:
        """Retire one fault spec.  Raises ``KeyError`` on unknown handles."""
        try:
            del self._fault_rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown fault rule handle: {rule_id!r}") from None
        if not self._fault_rules:
            self._arrival_high.clear()

    def _apply_faults(self, src: NodeId, dst: NodeId, delay: float):
        """Run one send through every installed fault spec.

        Returns ``(copies, delay)``: the number of deliveries to
        schedule (0 = lost, 2+ = duplicated) and the possibly jittered
        propagation delay.  Draw order per spec is loss → duplicate →
        jitter, short-circuiting on loss, so a given seed produces the
        same fate regardless of which counters downstream code reads.
        """
        copies = 1
        jittered = False
        for fault in self._fault_rules.values():
            rng = fault.rng
            if fault.loss and rng.random() < fault.loss:
                self.lost += 1
                return 0, delay
            if fault.duplicate and rng.random() < fault.duplicate:
                self.duplicated += 1
                copies += 1
            if fault.jitter:
                delay += rng.random() * fault.jitter
                jittered = True
        if jittered:
            arrival = self._sim.now + delay
            link = (src, dst)
            last = self._arrival_high.get(link, -1.0)
            if arrival < last:
                self.reordered += 1
            else:
                self._arrival_high[link] = arrival
        return copies, delay

    def partition(self, groups: Iterable[Iterable[NodeId]]) -> int:
        """Install a network partition; returns the rule handle.

        ``groups`` are disjoint node sets; a send is blocked iff its two
        endpoints belong to *different* groups.  Nodes in no group (e.g.
        ones that join mid-partition) communicate freely with everyone —
        a partition severs established islands, it does not quarantine
        newcomers.  Heal with :meth:`remove_drop_rule`.
        """
        side: Dict[NodeId, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if side.get(node_id, index) != index:
                    raise ValueError(
                        f"node {node_id!r} appears in more than one "
                        "partition group"
                    )
                side[node_id] = index

        return self.add_drop_rule(PartitionRule(side))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Send ``message`` one overlay hop from ``src`` to ``dst``."""
        self._charge(src, dst, message)
        if self._drop_rules:
            for rule in self._drop_rules.values():
                if rule(src, dst, message):
                    self.blocked += 1
                    return
        delay = self._delays.get((src, dst))
        if delay is None:
            delay = self.default_delay
        if self._fault_rules:
            copies, delay = self._apply_faults(src, dst, delay)
            if copies == 0:
                return
            for _ in range(copies - 1):
                self._sim.schedule_hop(
                    delay, self._hand_over, (src, dst, message)
                )
        self._sim.schedule_hop(delay, self._hand_over, (src, dst, message))

    def send_fanout(self, src: NodeId, dsts, message: Message) -> None:
        """Send one update to many direct neighbors (one hop each).

        ``message.fork()`` + :meth:`send` per destination, back-to-back:
        every destination gets its own envelope around the shared
        payload (so per-branch hop counters stay independent), and
        observers, drop rules and fault draws run once per recipient —
        one blocked or lost destination neither leaks through nor blocks
        its siblings.  Measured fan-out width is 1.03–1.12 (cupbench
        traced runs), so there is nothing to batch.
        """
        for dst in dsts:
            self.send(src, dst, message.fork())

    def send_direct(self, dst: NodeId, message: Message, delay: float = 0.0,
                    src: NodeId = None) -> None:
        """Deliver off-overlay traffic (replica control messages).

        Not counted as overlay hops and invisible to send observers, per
        the paper's cost model (§3.1 counts only query/update path hops).
        """
        self.sent_direct += 1
        self._sim.schedule(delay, self._hand_over, src, dst, message)
