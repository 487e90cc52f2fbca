"""Socket-backed transport for one daemon process.

:class:`LiveTransport` derives from the simulator's
:class:`~repro.sim.network.TransportCore`, so hop charging, observer
ordering and the delivered/dropped verdict are the *same code* in both
worlds: hop counters increment at send time, observers fire once per
overlay-hop send before anything can drop the message, ``send_direct``
is invisible to observers, and unreachable destinations are counted in
``dropped``.  Only how a charged message travels differs.

The transport itself owns no sockets.  Destinations resolve through a
*router* (the owning :class:`~repro.net.daemon.LiveNode`), which needs
three methods::

    send_wire(src, dst, message, direct) -> bool   # enqueue a frame
    is_peer(node_id) -> bool                       # known cluster member
    call_soon(fn, *args)                           # next loop iteration

Local deliveries — the daemon's own node, or a second handler registered
in-process (tests) — are deferred with ``call_soon`` rather than called
inline, mirroring the simulator's schedule-then-deliver ordering: a
handler never runs inside the stack frame of the handler that sent to
it.

One counter the simulator lacks: :attr:`received`, incremented for every
frame arriving off the wire.  A single process only ever sees its own
half of the cluster's traffic, so the invariant checker's conservation
audit adds ``received`` to the offered side (the sending process charged
its ``sent``) — without it, any node that receives more than it sends
would look like it manufactured messages.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.network import Message, NodeId, TransportCore


class LiveTransport(TransportCore):
    """The daemon's transport: charged hops travel as wire frames."""

    def __init__(self, clock, router):
        super().__init__()
        self._clock = clock
        self._router = router
        #: Frames that arrived off the wire for this process (offered by
        #: a *remote* sender's counters; see module docstring).
        self.received = 0

    def is_registered(self, node_id: NodeId) -> bool:
        """Local handler, or a live peer of the cluster."""
        return node_id in self._handlers or self._router.is_peer(node_id)

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        self._charge(src, dst, message)
        self._dispatch(src, dst, message, False)

    def send_fanout(self, src: NodeId, dsts, message: Message) -> None:
        for dst in dsts:
            self.send(src, dst, message.fork())

    def send_direct(self, dst: NodeId, message: Message, delay: float = 0.0,
                    src: NodeId = None) -> None:
        """Off-overlay control traffic: no observers, no hop count."""
        self.sent_direct += 1
        if delay > 0:
            self._clock.schedule(delay, self._dispatch, src, dst, message,
                                 True)
        else:
            self._dispatch(src, dst, message, True)

    def _dispatch(self, src: NodeId, dst: NodeId, message: Message,
                  direct: bool) -> None:
        if dst in self._handlers:
            # In-process destination: defer one loop turn so a handler
            # never re-enters from inside the sending handler's frame.
            self._router.call_soon(self._hand_over, src, dst, message)
        elif not self._router.send_wire(src, dst, message, direct):
            self.dropped += 1

    def deliver_wire(self, src: Optional[NodeId], dst: NodeId,
                     message: Message) -> None:
        """Hand a frame that arrived off the wire to its local handler."""
        self.received += 1
        self._hand_over(src, dst, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveTransport(sent={self.sent}, received={self.received}, "
            f"delivered={self.delivered}, dropped={self.dropped})"
        )
