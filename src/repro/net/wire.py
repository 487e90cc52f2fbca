"""Length-prefixed wire codec for CUP messages.

Every frame on a live connection is::

    +----------------+-----------+------------------+
    | payload length | codec tag |     payload      |
    |  4 bytes, !I   | 1 byte    |  `length` bytes  |
    +----------------+-----------+------------------+

The payload is one JSON object; the tag byte is always
:data:`CODEC_JSON` and doubles as a cheap corruption check.  Lengths are
big-endian and bounded by :data:`MAX_FRAME_BYTES`; a decoder seeing a
longer length, or any other tag, raises :class:`WireError` as soon as
the 5-byte header is complete — garbage prefixes are detected before
the peer can make us buffer an arbitrary amount.

On top of framing, this module maps every message family of
:mod:`repro.core.messages` (plus the keep-alive heartbeat) to and from
plain dicts: :func:`message_to_wire` / :func:`message_from_wire`.  The
mapping is total and lossless — ``hops``, ``hop_seq`` and ``route`` ride
along, so the recovery layer's gap detection works over real sockets
exactly as it does in the simulator.  Tuples become JSON lists in
flight and tuples again on arrival; ``None`` stays ``null`` (a CUP
query's ``path=None`` is semantically distinct from an empty chain).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional

from repro.core.entry import IndexEntry
from repro.core.keepalive import KeepAliveMessage
from repro.core.messages import (
    ClearBitMessage,
    NackMessage,
    QueryMessage,
    ReplicaEvent,
    ReplicaMessage,
    UpdateMessage,
    UpdateType,
)
from repro.sim.network import Message

_HEADER = struct.Struct("!IB")
HEADER_BYTES = _HEADER.size

#: Ceiling on one frame's payload.  A first-time update carrying every
#: fresh replica of a hot key stays far below this; anything larger is a
#: corrupt or hostile length prefix.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class WireError(RuntimeError):
    """Malformed frame, unknown codec, or undecodable message."""


#: The one payload encoding: a UTF-8 JSON object.
CODEC_JSON = 1


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    """One complete frame: header + encoded payload."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload), CODEC_JSON) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    Feed it whatever the socket hands you; it returns every frame that
    completed.  State survives partial headers and partial payloads, so
    byte-at-a-time delivery decodes identically to one big read.  Any
    :class:`WireError` poisons the stream — a length-prefixed protocol
    cannot resynchronize after corruption, so the owning connection must
    be dropped.
    """

    __slots__ = ("_buffer", "_max_frame")

    def __init__(self, max_frame: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self._max_frame = max_frame

    @property
    def buffered(self) -> int:
        """Bytes held waiting for a frame to complete."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[dict]:
        """Absorb ``data``; return the frames it completed (in order)."""
        buffer = self._buffer
        buffer.extend(data)
        frames: List[dict] = []
        while True:
            if len(buffer) < HEADER_BYTES:
                return frames
            length, tag = _HEADER.unpack_from(buffer)
            # Validate the header the moment it is complete: a garbage
            # prefix fails here instead of stalling the stream while we
            # "wait" for gigabytes that will never arrive.
            if length > self._max_frame:
                raise WireError(
                    f"frame length {length} exceeds the "
                    f"{self._max_frame}-byte limit (corrupt stream?)"
                )
            if tag != CODEC_JSON:
                raise WireError(f"unknown codec tag {tag} (corrupt stream?)")
            if len(buffer) < HEADER_BYTES + length:
                return frames
            payload = bytes(buffer[HEADER_BYTES:HEADER_BYTES + length])
            del buffer[:HEADER_BYTES + length]
            try:
                obj = json.loads(payload.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise WireError(
                    f"undecodable frame payload ({exc})"
                ) from exc
            if not isinstance(obj, dict):
                raise WireError(
                    f"frame payload must be a map, got {type(obj).__name__}"
                )
            frames.append(obj)


# ----------------------------------------------------------------------
# Index entries
# ----------------------------------------------------------------------


def entry_to_wire(entry: IndexEntry) -> dict:
    return {
        "key": entry.key,
        "replica_id": entry.replica_id,
        "address": entry.address,
        "lifetime": entry.lifetime,
        "timestamp": entry.timestamp,
        "sequence": entry.sequence,
    }


def entry_from_wire(data: dict) -> IndexEntry:
    return IndexEntry(
        key=data["key"],
        replica_id=data["replica_id"],
        address=data["address"],
        lifetime=float(data["lifetime"]),
        timestamp=float(data["timestamp"]),
        sequence=int(data["sequence"]),
    )


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------


def _tuple_or_none(value) -> Optional[tuple]:
    return None if value is None else tuple(value)


def message_to_wire(message: Message) -> dict:
    """Total mapping from every transportable message to a plain dict."""
    kind = message.kind
    out: Dict[str, Any] = {"kind": kind, "hops": message.hops}
    if kind == "query":
        out["key"] = message.key
        out["path"] = None if message.path is None else list(message.path)
    elif kind == "update":
        out["key"] = message.key
        out["type"] = int(message.update_type)
        out["entries"] = [entry_to_wire(e) for e in message.entries]
        out["replica_id"] = message.replica_id
        out["issued_at"] = message.issued_at
        out["route"] = None if message.route is None else list(message.route)
        out["hop_seq"] = message.hop_seq
    elif kind == "clear_bit":
        out["key"] = message.key
    elif kind == "nack":
        out["key"] = message.key
        out["missing"] = list(message.missing)
    elif kind == "keepalive":
        pass
    elif kind == "replica":
        out["event"] = message.event.value
        out["key"] = message.key
        out["replica_id"] = message.replica_id
        out["address"] = message.address
        out["lifetime"] = message.lifetime
    else:
        raise WireError(f"unserializable message kind: {kind!r}")
    return out


def message_from_wire(data: dict) -> Message:
    """Inverse of :func:`message_to_wire`; raises :class:`WireError`."""
    try:
        kind = data["kind"]
        if kind == "query":
            message: Message = QueryMessage(
                data["key"], path=_tuple_or_none(data["path"])
            )
        elif kind == "update":
            message = UpdateMessage(
                key=data["key"],
                update_type=UpdateType(int(data["type"])),
                entries=tuple(
                    entry_from_wire(e) for e in data["entries"]
                ),
                replica_id=data["replica_id"],
                issued_at=float(data["issued_at"]),
                route=_tuple_or_none(data["route"]),
            )
            hop_seq = data["hop_seq"]
            message.hop_seq = None if hop_seq is None else int(hop_seq)
        elif kind == "clear_bit":
            message = ClearBitMessage(data["key"])
        elif kind == "nack":
            message = NackMessage(
                data["key"], tuple(int(s) for s in data["missing"])
            )
        elif kind == "keepalive":
            message = KeepAliveMessage()
        elif kind == "replica":
            message = ReplicaMessage(
                event=ReplicaEvent(data["event"]),
                key=data["key"],
                replica_id=data["replica_id"],
                address=data["address"],
                lifetime=float(data["lifetime"]),
            )
        else:
            raise WireError(f"unknown message kind: {kind!r}")
        message.hops = int(data["hops"])
    except WireError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(
            f"malformed {data.get('kind', '?')!r} message: {exc}"
        ) from exc
    return message
