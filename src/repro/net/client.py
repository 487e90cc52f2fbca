"""Synchronous client for a live CUP node.

The CLI's ``repro node put|get|info|audit|stop`` subcommands talk to a
running daemon through this class.  It is plain blocking sockets on
purpose — a client makes one request at a time, so an event loop would
be ceremony — but it speaks exactly the same frames as the daemon's
peers: :func:`~repro.net.wire.encode_frame` out,
:class:`~repro.net.wire.FrameDecoder` in.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Deque, Iterable, Optional, Tuple

from repro.net.wire import FrameDecoder, WireError, encode_frame

_READ_CHUNK = 1 << 16


def parse_address(address: str, default_port: int = 9400) -> Tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``":port"`` -> ``(host, port)``."""
    host, sep, port = address.rpartition(":")
    if not sep:
        return address or "127.0.0.1", default_port
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(f"invalid node address {address!r}") from None


class NodeClient:
    """One connection to one daemon; usable as a context manager."""

    def __init__(self, address: str, timeout: float = 10.0):
        host, port = parse_address(address)
        self.address = f"{host}:{port}"
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        # Responses decoded past the one being awaited (a recv can land
        # mid-pipeline and carry several frames); served FIFO by later
        # requests instead of being dropped on the floor.
        self._pending: Deque[dict] = deque()

    def __enter__(self) -> "NodeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close races are benign
            pass

    def request(self, frame: dict) -> dict:
        """Send one request frame; block for its response frame.

        Responses are matched to requests by order (the daemon serves
        one client frame at a time per connection), so a frame that
        arrived in the same ``recv`` as an earlier response waits in
        ``_pending`` for the request it answers.
        """
        self._sock.sendall(encode_frame(frame))
        while not self._pending:
            data = self._sock.recv(_READ_CHUNK)
            if not data:
                raise WireError(
                    f"node {self.address} closed the connection "
                    f"before responding"
                )
            self._pending.extend(self._decoder.feed(data))
        return self._pending.popleft()

    # Convenience wrappers ------------------------------------------------

    def put(self, key: str, replica_id: str, address: str = "",
            lifetime: float = 300.0, event: str = "birth") -> dict:
        return self.request({
            "t": "put", "key": key, "replica_id": replica_id,
            "address": address, "lifetime": lifetime, "event": event,
        })

    def get(self, key: str, timeout: Optional[float] = None) -> dict:
        frame = {"t": "get", "key": key}
        if timeout is not None:
            frame["timeout"] = timeout
        return self.request(frame)

    def info(self) -> dict:
        return self.request({"t": "info"})

    def audit(self) -> dict:
        return self.request({"t": "audit"})

    def hazard(self, hazards: Iterable[str], action: str = "open",
               duration: Optional[float] = None) -> dict:
        """Open/close invariant hazard windows on the daemon's checker."""
        frame = {"t": "hazard", "action": action,
                 "hazards": list(hazards)}
        if duration is not None:
            frame["duration"] = duration
        return self.request(frame)

    def stop(self) -> dict:
        return self.request({"t": "stop"})
