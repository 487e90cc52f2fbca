"""The substrate seam ``core/`` runs over, stated as typing Protocols.

The CUP protocol layer (:mod:`repro.core`) never imports an event loop
or a socket: every node touches its substrate exclusively through two
duck-typed dependencies —

* a **clock** with a ``now`` attribute and a ``schedule(delay, fn,
  *args)`` method returning a cancellable handle (the discrete-event
  :class:`~repro.sim.engine.Simulator`, or
  :class:`~repro.net.clock.LiveClock` over asyncio), and
* a **transport** derived from
  :class:`~repro.sim.network.TransportCore` (the simulator's
  :class:`~repro.sim.network.Transport`, or
  :class:`~repro.net.transport.LiveTransport` over TCP connections) —
  a shared base class, so conformance is ``isinstance``.

The clock and the daemon-side router share no code between the two
worlds, so their seams are stated here as runtime-checkable Protocols
and ``tests/test_live_node.py`` asserts both implementations are
``isinstance`` of them.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.sim.network import Message, NodeId

__all__ = ["ClockSeam", "RouterSeam"]


@runtime_checkable
class ClockSeam(Protocol):
    """What node logic, timers and recovery need of a clock."""

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or wall)."""
        ...  # pragma: no cover - protocol definition

    def schedule(self, delay: float, fn, *args) -> Any:
        """Run ``fn(*args)`` after ``delay``; returns a handle with
        ``cancel()``."""
        ...  # pragma: no cover - protocol definition


@runtime_checkable
class RouterSeam(Protocol):
    """What :class:`~repro.net.transport.LiveTransport` needs of the
    daemon it routes for.

    The live transport turns a protocol send into a wire frame and asks
    its router — the :class:`~repro.net.daemon.LiveNode` — where (and
    whether) it can go.  ``send_wire`` returns False when the frame was
    dropped (no link, outbox full); the transport counts the drop and
    the protocol's own retry machinery absorbs the loss.
    """

    def is_peer(self, node_id: NodeId) -> bool:
        ...  # pragma: no cover - protocol definition

    def call_soon(self, fn, *args) -> None:
        ...  # pragma: no cover - protocol definition

    def send_wire(
        self, src: NodeId, dst: NodeId, message: Message, direct: bool
    ) -> bool:
        ...  # pragma: no cover - protocol definition
