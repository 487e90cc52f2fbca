"""Allocation benchmark: the fan-out shares one payload.

The §2.6 fan-out allocates one immutable payload and k lightweight
envelopes (``UpdateMessage.fork``) instead of a full message per
interested child.  This suite pins that property mechanically:

* **payload identity** — every envelope delivered to the k children
  carries the *same* entries tuple object (zero payload copies per
  push, whatever k is);
* **allocation scaling** — tracemalloc'd bytes per child stay flat and
  small as k grows with a large multi-entry payload, i.e. nothing on
  the per-child path scales with the payload size.

The fan-out is driven white-box through ``_forward_to_interested`` on a
real wired network, so the measured path is exactly the protocol's.
"""

import time
import tracemalloc

from repro.core.entry import IndexEntry
from repro.core.messages import UpdateMessage, UpdateType
from repro.core.protocol import CupConfig, CupNetwork

#: Entries carried by the benchmark update: big enough that any
#: accidental payload copy would dominate the per-child byte count.
PAYLOAD_ENTRIES = 64


def _fanout_network(children: int):
    """A 64-node network with one key whose authority has ``children``
    interested subscribers (interest bits forged directly — transport
    delivers between any registered pair)."""
    config = CupConfig(
        num_nodes=64, total_keys=1, query_rate=1.0, seed=3,
        query_start=10.0, query_duration=10.0, drain=10.0,
    )
    net = CupNetwork(config)
    key = net.keys[0]
    authority = net.overlay.authority(key)
    node = net.nodes[authority]
    state = node.cache.get_or_create(key)
    interest = {
        node_id for node_id in list(net.nodes) if node_id != authority
    }
    while len(interest) > children:
        interest.pop()
    state.interest = tuple(sorted(interest, key=str))
    return net, node, state, key


def _refresh(key: str, at: float, seq: int) -> UpdateMessage:
    entries = tuple(
        IndexEntry(key, f"r{i:03d}", f"addr{i}", 1000.0, at, sequence=seq)
        for i in range(PAYLOAD_ENTRIES)
    )
    return UpdateMessage(key, UpdateType.REFRESH, entries, "r000", at)


def test_fanout_shares_one_payload_per_push():
    for children in (1, 4, 16, 63):
        net, node, state, key = _fanout_network(children)
        seen = []
        net.transport.add_send_observer(
            lambda src, dst, message: seen.append(message)
        )
        update = _refresh(key, at=0.0, seq=1)
        delivered = node._forward_to_interested(state, update)
        assert len(delivered) == children
        assert len(seen) == children
        # One shared immutable payload, k envelopes: every hop carries
        # the identical entries tuple object, and distinct envelopes.
        assert all(message.entries is update.entries for message in seen)
        assert len({id(message) for message in seen}) == children


def test_fanout_allocates_o1_payloads_per_push(perf_publish):
    """Per-child allocation stays flat and payload-independent in k."""
    pushes = 50

    def bytes_per_child(children: int) -> float:
        net, node, state, key = _fanout_network(children)
        # Warm caches (interest memo, metrics slots) outside the trace.
        node._forward_to_interested(state, _refresh(key, 0.0, 1))
        tracemalloc.start()
        for i in range(pushes):
            node._forward_to_interested(state, _refresh(key, 0.0, i + 2))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Peak covers the in-flight envelopes plus the payloads under
        # construction; per child per push it must stay near the size
        # of one envelope, not of the 64-entry payload.
        return peak / (pushes * children)

    small_k = bytes_per_child(4)
    large_k = bytes_per_child(63)
    payload_bytes = PAYLOAD_ENTRIES * 100  # ~100 B per IndexEntry, floor
    assert large_k < payload_bytes, (
        f"per-child allocation {large_k:.0f} B approaches the payload "
        f"size ({payload_bytes} B) — the fan-out is copying payloads"
    )
    # Flatness in k: amortizing the single payload over more children
    # must not grow the per-child cost (generous 2x band for allocator
    # noise).
    assert large_k <= small_k * 2.0, (large_k, small_k)

    # Throughput of the push itself (envelopes placed on the wire per
    # second).
    net, node, state, key = _fanout_network(63)
    updates = [_refresh(key, 0.0, i + 1) for i in range(pushes + 1)]
    node._forward_to_interested(state, updates[0])
    started = time.perf_counter()
    for update in updates[1:]:
        node._forward_to_interested(state, update)
    elapsed = time.perf_counter() - started
    perf_publish(
        "fanout_push",
        wall_seconds=elapsed,
        ops=pushes * 63,
        unit="envelopes",
        bytes_per_child_k4=round(small_k, 1),
        bytes_per_child_k63=round(large_k, 1),
        payload_entries=PAYLOAD_ENTRIES,
    )
