"""Live networking for CUP: wire framing, clock and transport, daemon.

The simulator and the live stack share one protocol core; this package
holds everything that only exists in the live world — framing
(:mod:`~repro.net.wire`), the asyncio substrate
(:mod:`~repro.net.clock`, :mod:`~repro.net.transport`), the node daemon
(:mod:`~repro.net.daemon`) and its client (:mod:`~repro.net.client`).
"""

from repro.net.client import NodeClient, parse_address
from repro.net.clock import LiveClock
from repro.net.daemon import LiveNode, LiveNodeConfig, run_node, serve
from repro.net.transport import LiveTransport
from repro.net.wire import (
    FrameDecoder,
    WireError,
    encode_frame,
    message_from_wire,
    message_to_wire,
)

__all__ = [
    "FrameDecoder",
    "LiveClock",
    "LiveNode",
    "LiveNodeConfig",
    "LiveTransport",
    "NodeClient",
    "WireError",
    "encode_frame",
    "message_from_wire",
    "message_to_wire",
    "parse_address",
    "run_node",
    "serve",
]
