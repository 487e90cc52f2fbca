"""Live networking for CUP: wire framing, clock and transport, daemon.

The simulator and the live stack share one protocol core; this package
holds everything that only exists in the live world — framing
(:mod:`~repro.net.wire`), the asyncio substrate
(:mod:`~repro.net.clock`, :mod:`~repro.net.transport`), the node daemon
(:mod:`~repro.net.daemon`) and its client (:mod:`~repro.net.client`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "client": "NodeClient parse_address",
    "clock": "LiveClock",
    "daemon": "LiveNode LiveNodeConfig run_node serve",
    "transport": "LiveTransport",
    "wire": "FrameDecoder WireError encode_frame message_from_wire "
            "message_to_wire",
})
