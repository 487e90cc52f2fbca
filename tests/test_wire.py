"""Wire codec: framing edge cases and total message round-trips."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.net.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    WireError,
    encode_frame,
    entry_from_wire,
    entry_to_wire,
    message_from_wire,
    message_to_wire,
)


def roundtrip(message):
    return message_from_wire(message_to_wire(message))


def entry(key="k", replica="r1", seq=3):
    return IndexEntry(key=key, replica_id=replica, address="10.0.0.1",
                      lifetime=300.0, timestamp=1234.5, sequence=seq)


# ----------------------------------------------------------------------
# Message round-trips: one per wire-transportable kind
# ----------------------------------------------------------------------


def test_query_roundtrip_with_path():
    msg = QueryMessage("some/key", path=("a", "b", "c"))
    msg.hops = 7
    out = roundtrip(msg)
    assert isinstance(out, QueryMessage)
    assert out.key == "some/key"
    assert out.path == ("a", "b", "c")
    assert out.hops == 7


def test_query_roundtrip_none_path_stays_none():
    out = roundtrip(QueryMessage("k", path=None))
    assert out.path is None


def test_query_roundtrip_empty_path_stays_empty():
    out = roundtrip(QueryMessage("k", path=()))
    assert out.path == ()
    assert out.path is not None


@pytest.mark.parametrize("update_type", list(UpdateType))
def test_update_roundtrip_every_type(update_type):
    msg = UpdateMessage(
        key="k", update_type=update_type,
        entries=(entry(seq=1), entry(replica="r2", seq=2)),
        replica_id="r1", issued_at=99.25, route=("n1", "n2"),
    )
    msg.hops = 2
    msg.hop_seq = 41
    out = roundtrip(msg)
    assert isinstance(out, UpdateMessage)
    assert out.update_type is update_type
    assert out.entries == msg.entries
    assert out.replica_id == "r1"
    assert out.issued_at == 99.25
    assert out.route == ("n1", "n2")
    assert out.hop_seq == 41
    assert out.hops == 2


def test_update_roundtrip_null_route_and_hop_seq():
    msg = UpdateMessage(key="k", update_type=UpdateType.REFRESH,
                        entries=(), replica_id=None, issued_at=0.0)
    out = roundtrip(msg)
    assert out.route is None
    assert out.hop_seq is None
    assert out.entries == ()


def test_clear_bit_roundtrip():
    out = roundtrip(ClearBitMessage("k"))
    assert isinstance(out, ClearBitMessage)
    assert out.key == "k"


def test_nack_roundtrip():
    msg = NackMessage("k", (4, 5, 9))
    out = roundtrip(msg)
    assert isinstance(out, NackMessage)
    assert out.missing == (4, 5, 9)


def test_keepalive_roundtrip():
    out = roundtrip(KeepAliveMessage())
    assert isinstance(out, KeepAliveMessage)
    assert out.kind == "keepalive"


@pytest.mark.parametrize("event", list(ReplicaEvent))
def test_replica_roundtrip_every_event(event):
    msg = ReplicaMessage(event=event, key="k", replica_id="r9",
                         address="addr", lifetime=120.0)
    out = roundtrip(msg)
    assert isinstance(out, ReplicaMessage)
    assert out.event is event
    assert out.replica_id == "r9"
    assert out.lifetime == 120.0


def test_entry_roundtrip_equality():
    original = entry()
    assert entry_from_wire(entry_to_wire(original)) == original


def test_unknown_kind_raises_wire_error():
    with pytest.raises(WireError):
        message_from_wire({"kind": "gossip", "hops": 0})


def test_malformed_update_raises_wire_error():
    with pytest.raises(WireError, match="update"):
        message_from_wire({"kind": "update", "hops": 0, "key": "k"})


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def test_frame_roundtrip_single():
    decoder = FrameDecoder()
    frames = decoder.feed(encode_frame({"t": "hello", "id": "n1"}))
    assert frames == [{"t": "hello", "id": "n1"}]
    assert decoder.buffered == 0


def test_frame_roundtrip_many_in_one_read():
    payloads = [{"i": i} for i in range(20)]
    blob = b"".join(encode_frame(p) for p in payloads)
    assert FrameDecoder().feed(blob) == payloads


def test_frame_roundtrip_byte_at_a_time():
    payloads = [{"t": "msg", "n": i, "data": "x" * i} for i in range(8)]
    blob = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    out = []
    for i in range(len(blob)):
        out.extend(decoder.feed(blob[i:i + 1]))
    assert out == payloads
    assert decoder.buffered == 0


def test_message_roundtrip_through_frames():
    msg = UpdateMessage(
        key="k", update_type=UpdateType.REFRESH,
        entries=(entry(seq=1), entry(replica="r2", seq=2)),
        replica_id="r1", issued_at=99.25, route=("n1", "n2"),
    )
    msg.hops = 2
    blob = encode_frame(message_to_wire(msg))
    (decoded,) = FrameDecoder().feed(blob)
    restored = message_from_wire(decoded)
    assert message_to_wire(restored) == message_to_wire(msg)


def test_partial_frame_returns_nothing_until_complete():
    frame = encode_frame({"k": "v"})
    decoder = FrameDecoder()
    assert decoder.feed(frame[:HEADER_BYTES + 1]) == []
    assert decoder.buffered == HEADER_BYTES + 1
    assert decoder.feed(frame[HEADER_BYTES + 1:]) == [{"k": "v"}]


def test_oversize_length_rejected_from_header_alone():
    header = struct.pack("!IB", MAX_FRAME_BYTES + 1, 1)
    with pytest.raises(WireError, match="exceeds"):
        FrameDecoder().feed(header)


def test_unknown_codec_tag_rejected_from_header_alone():
    header = struct.pack("!IB", 10, 77)
    with pytest.raises(WireError, match="codec tag"):
        FrameDecoder().feed(header)


def test_retired_msgpack_tag_rejected_from_header_alone():
    # Tag 2 once meant msgpack; JSON (tag 1) is the only payload now.
    header = struct.pack("!IB", 10, 2)
    with pytest.raises(WireError, match="codec tag 2"):
        FrameDecoder().feed(header)


def test_garbage_prefix_detected_before_payload_arrives():
    # b"GET / HT" begins with a huge big-endian "length"; the decoder
    # must not sit waiting for gigabytes of payload.
    with pytest.raises(WireError):
        FrameDecoder().feed(b"GET / HTTP/1.1\r\n")


def test_undecodable_payload_raises():
    blob = struct.pack("!IB", 4, 1) + b"\xff\xfe\xfd\xfc"
    with pytest.raises(WireError, match="undecodable"):
        FrameDecoder().feed(blob)


def test_hostile_nesting_depth_raises_wire_error():
    payload = b"[" * 200_000
    blob = struct.pack("!IB", len(payload), 1) + payload
    with pytest.raises(WireError, match="undecodable"):
        FrameDecoder().feed(blob)


def test_non_map_payload_raises():
    payload = b"[1,2]"
    blob = struct.pack("!IB", len(payload), 1) + payload
    with pytest.raises(WireError, match="must be a map"):
        FrameDecoder().feed(blob)


def test_encode_frame_rejects_oversize_payload():
    with pytest.raises(WireError, match="exceeds"):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 16)})


# ----------------------------------------------------------------------
# Property fuzz: arbitrary chunking never changes what decodes
# ----------------------------------------------------------------------

_wire_entries = st.builds(
    IndexEntry,
    key=st.text(min_size=1, max_size=8),
    replica_id=st.text(min_size=1, max_size=8),
    address=st.text(max_size=12),
    lifetime=st.floats(0.001, 1e6, allow_nan=False),
    timestamp=st.floats(0.0, 1e9, allow_nan=False),
    sequence=st.integers(0, 2**31),
)

_wire_messages = st.one_of(
    st.builds(
        QueryMessage,
        st.text(min_size=1, max_size=16),
        path=st.none() | st.tuples() | st.lists(
            st.text(min_size=1, max_size=6), max_size=4
        ).map(tuple),
    ),
    st.builds(
        UpdateMessage,
        key=st.text(min_size=1, max_size=16),
        update_type=st.sampled_from(list(UpdateType)),
        entries=st.lists(_wire_entries, max_size=3).map(tuple),
        replica_id=st.none() | st.text(min_size=1, max_size=8),
        issued_at=st.floats(0.0, 1e9, allow_nan=False),
        route=st.none() | st.lists(
            st.text(min_size=1, max_size=6), max_size=3
        ).map(tuple),
    ),
    st.builds(ClearBitMessage, st.text(min_size=1, max_size=16)),
    st.builds(
        NackMessage,
        st.text(min_size=1, max_size=16),
        st.lists(st.integers(0, 2**20), min_size=1, max_size=6).map(tuple),
    ),
    st.builds(KeepAliveMessage),
    st.builds(
        ReplicaMessage,
        event=st.sampled_from(list(ReplicaEvent)),
        key=st.text(min_size=1, max_size=16),
        replica_id=st.text(min_size=1, max_size=8),
        address=st.text(max_size=12),
        lifetime=st.floats(0.001, 1e6, allow_nan=False),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    messages=st.lists(_wire_messages, min_size=1, max_size=6),
    hops=st.integers(0, 64),
    chunk_seed=st.randoms(use_true_random=False),
)
def test_fuzz_roundtrip_survives_arbitrary_chunking(
    messages, hops, chunk_seed
):
    for message in messages:
        message.hops = hops
    blob = b"".join(
        encode_frame(message_to_wire(m)) for m in messages
    )
    decoder = FrameDecoder()
    decoded = []
    position = 0
    while position < len(blob):
        step = chunk_seed.randint(1, 13)
        decoded.extend(decoder.feed(blob[position:position + step]))
        position += step
    assert decoder.buffered == 0
    assert len(decoded) == len(messages)
    for original, data in zip(messages, decoded):
        restored = message_from_wire(data)
        assert type(restored) is type(original)
        assert message_to_wire(restored) == message_to_wire(original)


@settings(max_examples=100, deadline=None)
@given(garbage=st.binary(min_size=HEADER_BYTES, max_size=64))
def test_fuzz_garbage_never_hangs_or_decodes_silently(garbage):
    decoder = FrameDecoder()
    try:
        frames = decoder.feed(garbage)
    except WireError:
        return  # rejected: the connection would be dropped
    # Anything accepted must have been a structurally valid frame
    # stream; whatever remains buffered is a plausible partial frame.
    assert all(isinstance(f, dict) for f in frames)
    assert decoder.buffered <= len(garbage)
