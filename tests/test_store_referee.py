"""The store's referee: base + log ≡ the live node, at every tick.

``NodeStore`` no longer pickles the node; it appends the keys the daemon
marked dirty at its two doors (``LiveNode.receive`` and a client get) and
rewrites the base on a membership change.  A mutation that reaches a
persisted field through any other path would be lost at the next crash
without a single test noticing — so this property drives a durable
two-node cluster over real sockets through random births, refreshes,
deaths, gets, clear-bits, member joins and leaves, and at every snapshot
tick loads what is on disk and requires it to equal what one full capture
of the live node would have held, field by field.
"""

import asyncio
import itertools
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import KeyState
from repro.core.messages import ClearBitMessage
from repro.net.daemon import LiveNode, LiveNodeConfig
from repro.persistence.nodestore import (
    NodeStore,
    capture_state,
    sanitize_restored,
)

REPLICAS = ["r1", "r2"]
#: Nothing listens on port 1: a member that joins, is dialed once (the
#: backoff below outlasts the test) and leaves.
GHOST = "127.0.0.1:1"

_node = st.integers(0, 1)
#: (owner, index): the index-th key whose authority is that node at boot.
#: Ports are ephemeral, so the ring and with it a fixed name's authority
#: differ from run to run; a key named by its role does not.
_key = st.tuples(_node, st.integers(0, 2))
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["birth", "refresh", "death"]), _node,
                  _key, st.sampled_from(REPLICAS)),
        st.tuples(st.just("get"), _node, _key),
        st.tuples(st.just("clear_bit"), _node, _key),
        st.tuples(st.sampled_from(["join", "leave"]), _node),
        st.tuples(st.just("tick"), _node),
        st.tuples(st.just("tick"), _node),
        st.tuples(st.just("tick"), _node),
    ),
    min_size=4, max_size=30,
)
K = (0, 0)  # a key node 0 owns


def persisted(state):
    """Every field of a sanitized ``NodeState`` that the store answers
    for, as plain comparable data."""
    def slots(key_state):
        out = {slot: getattr(key_state, slot) for slot in KeyState.__slots__}
        return dict(out, justification_deadlines=tuple(
            out["justification_deadlines"]))

    return {
        "identity": (state.node_id, state.mode, state.members),
        "states": {key: slots(key_state)
                   for key, key_state in state.cache.states.items()},
        "directory": {key: dict(per_key) for key, per_key
                      in state.authority._entries.items()},
        "sequences": dict(state.authority._sequences),
        "recovery": state.recovery,
    }


def check_tick(node):
    """Save, then: disk (base + log) ≡ a full capture taken right now.
    Returns the kind of file the save wrote (``None``: nothing dirty)."""
    store = node._store
    saves = store.saves
    node._snapshot_state()
    assert node.metrics.state_snapshot_failures == 0
    now = node.clock.now
    on_disk = NodeStore(node.config.state_dir).load(
        expect_node_id=node.node_id, expect_mode=node.config.mode)
    # capture_state hands out the live containers: copy before scrubbing.
    in_memory = pickle.loads(pickle.dumps(capture_state(node)))
    sanitize_restored(on_disk, now)
    sanitize_restored(in_memory, now)
    assert persisted(on_disk) == persisted(in_memory)
    return store.last_save_kind if store.saves > saves else None


async def run_ops(ops, state_root):
    config = dict(quiet=True, snapshot_interval=3600.0, policy="all-out",
                  keepalive_period=60.0, dial_backoff_base=60.0,
                  dial_backoff_max=60.0)
    first = LiveNode(LiveNodeConfig(
        port=0, state_dir=f"{state_root}/a", **config))
    await first.start()
    second = LiveNode(LiveNodeConfig(
        port=0, peers=(first.node_id,), state_dir=f"{state_root}/b",
        **config))
    await second.start()
    nodes = [first, second]

    def owned_by_each(prefix, count):
        """At least ``count`` names per node whose authority it is."""
        owned = {node.node_id: [] for node in nodes}
        for i in itertools.count():
            if min(map(len, owned.values())) >= count:
                return owned
            name = f"{prefix}{i}"
            owned[first.overlay.authority(name)].append(name)

    owned = owned_by_each("ref/k", 3)
    # A ring of two random ports can hand one node nearly every name, so
    # resident keys are picked per owner, like the keys the ops name.
    ballast = owned_by_each("ballast/", 30)

    def key_of(role):
        owner, index = role
        return owned[nodes[owner].node_id][index]

    churned = any(op[0] in ("join", "leave") for op in ops)
    try:
        # Resident keys, so the base outweighs a test's worth of records
        # and every later tick appends (a base would hide a missed door).
        for node in nodes:
            for key in ballast[node.node_id][:30]:
                await node._client_put({
                    "key": key, "replica_id": "r0",
                    "address": "addr", "lifetime": 300.0})
        await asyncio.sleep(0.05)
        for node in nodes:
            check_tick(node)
        for op in ops:
            kind, node = op[0], nodes[op[1]]
            if kind in ("birth", "refresh", "death"):
                await node._client_put({
                    "key": key_of(op[2]), "replica_id": op[3],
                    "event": kind, "address": "addr", "lifetime": 300.0})
            elif kind == "get":
                await node._client_get(
                    {"key": key_of(op[2]), "timeout": 0.05})
            elif kind == "clear_bit":
                other = nodes[1 - op[1]]
                node.transport.send(node.node_id, other.node_id,
                                    ClearBitMessage(key_of(op[2])))
            elif kind == "join":
                node._add_member(GHOST)
            elif kind == "leave":
                node._remove_member(GHOST, "leave")
            else:
                assert check_tick(node) != "base" or churned
            await asyncio.sleep(0.01)  # let the frames land
        for node in nodes:
            assert check_tick(node) != "base" or churned
    finally:
        for node in nodes:
            node.request_stop()
            await node.serve_forever()
    for node in nodes:
        # A graceful stop leaves one base and no log behind.
        store = NodeStore(node.config.state_dir)
        store.load()
        assert (store.log_bytes, store.log_records) == (0, 0)


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
# One per door, so each is exercised whatever the search finds.  A local
# hit moves only the popularity count, and only through the get door:
@example(ops=[("birth", 0, K, "r1"), ("get", 1, K), ("tick", 1),
              ("get", 1, K)])
# A refresh pushed to a subscriber arrives through ``receive``:
@example(ops=[("birth", 0, K, "r1"), ("get", 1, K), ("tick", 0),
              ("tick", 1), ("refresh", 1, K, "r1")])
# A replica born and dead inside one tick leaves only its counter:
@example(ops=[("birth", 1, K, "r2"), ("death", 1, K, "r2")])
# A clear-bit at the authority, then a membership change and back:
@example(ops=[("birth", 0, K, "r1"), ("get", 1, K), ("tick", 0),
              ("clear_bit", 1, K), ("tick", 0), ("join", 0), ("tick", 0),
              ("refresh", 0, K, "r1"), ("leave", 0)])
def test_disk_equals_the_live_node_at_every_tick(ops, tmp_path_factory):
    asyncio.run(run_ops(ops, tmp_path_factory.mktemp("referee")))
