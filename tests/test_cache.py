"""Unit tests for per-key node state and the node cache."""

import pickle
import tracemalloc

import pytest
from helpers import MicroNet
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import NO_ITEMS, KeyState, NodeCache
from repro.core.channels import CapacityConfig
from repro.core.entry import IndexEntry
from repro.core.messages import UpdateMessage, UpdateType


def entry(replica="k/r0", timestamp=0.0, lifetime=100.0, seq=0):
    return IndexEntry("k", replica, f"addr://{replica}", lifetime, timestamp, seq)


def refresh():
    return UpdateMessage("k", UpdateType.REFRESH, (entry(),), "k/r0", 0.0)


class TestEntryManagement:
    def test_apply_entry_inserts(self):
        state = KeyState("k")
        assert state.apply_entry(entry())
        assert state.entries["k/r0"].sequence == 0

    def test_apply_entry_newer_sequence_wins(self):
        state = KeyState("k")
        state.apply_entry(entry(seq=1))
        assert state.apply_entry(entry(seq=2, timestamp=50.0))
        assert state.entries["k/r0"].timestamp == 50.0

    def test_apply_entry_stale_sequence_rejected(self):
        state = KeyState("k")
        state.apply_entry(entry(seq=5))
        assert not state.apply_entry(entry(seq=4, timestamp=99.0))
        assert state.entries["k/r0"].timestamp == 0.0

    def test_apply_entry_equal_sequence_rejected(self):
        state = KeyState("k")
        state.apply_entry(entry(seq=5))
        assert not state.apply_entry(entry(seq=5))

    def test_remove_entry(self):
        state = KeyState("k")
        state.apply_entry(entry())
        assert state.remove_entry("k/r0")
        assert not state.remove_entry("k/r0")

    def test_fresh_entries_filters_expired(self):
        state = KeyState("k")
        state.apply_entry(entry(replica="k/r0", lifetime=10.0))
        state.apply_entry(entry(replica="k/r1", lifetime=100.0))
        fresh = state.fresh_entries(now=50.0)
        assert [e.replica_id for e in fresh] == ["k/r1"]

    def test_has_fresh_and_all_expired(self):
        state = KeyState("k")
        assert not state.has_fresh(0.0)
        assert not state.all_expired(0.0)  # empty cache is not "expired"
        state.apply_entry(entry(lifetime=10.0))
        assert state.has_fresh(5.0)
        assert state.all_expired(20.0)

    def test_purge_expired(self):
        state = KeyState("k")
        state.apply_entry(entry(replica="k/r0", lifetime=10.0))
        state.apply_entry(entry(replica="k/r1", lifetime=100.0))
        assert state.purge_expired(now=50.0) == 1
        assert list(state.entries) == ["k/r1"]


    def test_refresh_of_the_sole_entry_sets_both_bounds_exactly(self):
        # A refresh is a replacement; were min_expires left stale-low,
        # the gc sweep's skip would never fire for a one-replica key.
        state = KeyState("k")
        state.apply_entry(entry(timestamp=0.0, lifetime=100.0, seq=1))
        state.apply_entry(entry(timestamp=90.0, lifetime=100.0, seq=2))
        assert state.min_expires == state.max_expires == 190.0
        # Shrinking refresh of a sole entry: exact as well.
        state.apply_entry(entry(timestamp=95.0, lifetime=10.0, seq=3))
        assert state.min_expires == state.max_expires == 105.0

    def test_refresh_of_one_of_two_entries_keeps_the_lower_bound(self):
        state = KeyState("k")
        state.apply_entry(entry("k/r0", timestamp=0.0, seq=1))
        state.apply_entry(entry("k/r1", timestamp=50.0, seq=1))
        state.apply_entry(entry("k/r0", timestamp=90.0, seq=2))
        # Conservative (stale-low) until the sweep re-tightens it.
        assert state.min_expires == 100.0
        assert state.max_expires == 190.0

    def test_inlined_update_path_keeps_the_same_bounds(self):
        # CupNode._handle_update applies single-entry updates inline.
        net = MicroNet()
        net.seed_authority("k", lifetime=100.0)
        net.node(1).post_local_query("k")
        net.settle(50.0)
        net.refresh_authority("k", lifetime=100.0)
        net.settle(1.0)
        cached = net.node(1).cache.get("k")
        (only,) = cached.entries.values()
        assert only.sequence == 2
        assert (
            cached.min_expires
            == cached.max_expires
            == only.timestamp + only.lifetime
        )


class TestInterestBits:
    def test_register_and_clear(self):
        state = KeyState("k")
        state.register_interest("n1")
        assert "n1" in state.interest
        assert state.clear_interest("n1")
        assert not state.clear_interest("n1")

    def test_drop_departed_neighbors(self):
        state = KeyState("k")
        for neighbor in "abc":
            state.register_interest(neighbor)
        state.waiting = ("a", "c")
        state.drop_departed_neighbors({"a", "b"})
        assert state.interest == ("a", "b")
        assert state.waiting == ("a",)


    def test_audit_reports_unsorted_or_duplicated_neighbors(self):
        state = KeyState("k")
        state.interest = (10, 9)  # "10" < "9": sorted by str, fine
        state.waiting = ("a",)
        assert state.audit_consistency() == []
        for bad in (("b", "a"), ("a", "a"), (9, 10)):
            state.interest = bad
            (problem,) = state.audit_consistency()
            assert "interest" in problem and "str-sorted" in problem
        state.interest = ()
        state.waiting = {"a"}
        (problem,) = state.audit_consistency()
        assert "waiting {'a'}" in problem


# Ints and strings, so str order differs from int order ("10" < "9").
_NEIGHBOR = st.sampled_from([0, 1, 2, 9, 10, 11, 100, "a", "b", "n1", "n2"])
_INTEREST_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _NEIGHBOR),
        st.tuples(st.just("clear"), _NEIGHBOR),
        st.tuples(st.just("clear_all")),
        st.tuples(st.just("drop"), st.frozensets(_NEIGHBOR)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_INTEREST_OPS)
def test_interest_tuple_behaves_like_a_sorted_set(ops):
    """The interest tuple keeps what a set guaranteed — no duplicates,
    the same membership — and is always in str fan-out order."""
    state = KeyState("k")
    model = set()
    for op in ops:
        if op[0] == "register":
            state.register_interest(op[1])
            model.add(op[1])
        elif op[0] == "clear":
            assert state.clear_interest(op[1]) == (op[1] in model)
            model.discard(op[1])
        elif op[0] == "clear_all":
            state.clear_all_interest()
            model.clear()
        else:
            state.drop_departed_neighbors(op[1])
            model &= op[1]
        assert state.interest == tuple(sorted(model, key=str))
        assert state.audit_consistency() == []


class TestJustification:
    def test_query_settles_open_windows(self):
        state = KeyState("k")
        state.record_justification_window(100.0)
        state.record_justification_window(200.0)
        justified, unjustified = state.settle_justification(now=150.0)
        assert (justified, unjustified) == (1, 1)
        assert not state.justification_deadlines

    def test_expire_justification_counts_closed(self):
        state = KeyState("k")
        state.record_justification_window(10.0)
        state.record_justification_window(300.0)
        assert state.expire_justification(now=50.0) == 1
        assert len(state.justification_deadlines) == 1

    def test_window_retention_capped(self):
        state = KeyState("k")
        for i in range(KeyState.MAX_JUSTIFICATION_WINDOWS + 10):
            state.record_justification_window(float(i))
        assert (
            len(state.justification_deadlines)
            == KeyState.MAX_JUSTIFICATION_WINDOWS
        )


class TestSharedEmpties:
    """A key state costs what it holds: no container until a first add."""

    CONTAINERS = ("interest", "waiting", "justification_deadlines")

    def test_fresh_states_share_their_empties(self):
        a, b = KeyState("a"), KeyState("b")
        for name in self.CONTAINERS:
            assert not getattr(a, name)
            assert getattr(a, name) is getattr(b, name)

    def test_fresh_state_allocates_under_500_bytes(self):
        keys = [f"k{i}" for i in range(1000)]
        states = [None] * len(keys)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, key in enumerate(keys):
                states[i] = KeyState(key)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 1,456 B with a private deque and two private sets per state.
        assert allocated / len(keys) <= 500

    def test_first_add_gives_each_state_a_private_container(self):
        a, b = KeyState("a"), KeyState("b")
        for state in (a, b):
            state.register_interest("n1")
            state.record_justification_window(10.0)
        a.register_interest("n2")
        a.record_justification_window(20.0)
        assert (a.interest, b.interest) == (("n1", "n2"), ("n1",))
        assert isinstance(b.interest, tuple)
        assert a.justification_deadlines == [10.0, 20.0]
        assert b.justification_deadlines == [10.0]
        assert not KeyState("c").interest

    def test_coalesced_neighbor_query_gets_a_private_waiting_set(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(2).post_local_query("k")
        net.sim.run_until(0.015)  # n1 holds n2's query; no answer yet
        relay = net.node(1).cache.get("k")
        assert relay.waiting == ("n2",) and isinstance(relay.waiting, tuple)
        assert not net.node(2).cache.get("k").waiting
        assert not KeyState("other").waiting
        net.settle()
        assert not relay.waiting
        assert relay.waiting is KeyState("other").waiting  # re-bound

    def test_clearing_rebinds_the_shared_empty(self):
        state, fresh = KeyState("k"), KeyState("fresh")
        state.register_interest("n1")
        assert state.clear_interest("n1")
        assert state.interest is fresh.interest
        state.register_interest("n1")
        state.clear_all_interest()
        assert state.interest is fresh.interest
        state.record_justification_window(10.0)
        state.settle_justification(now=5.0)
        assert state.justification_deadlines is fresh.justification_deadlines

    def test_restored_empty_state_accepts_first_adds(self):
        # A pickle round trip hands back empties of its own: nothing may
        # rely on the shared objects' identity.
        state = pickle.loads(pickle.dumps(KeyState("k")))
        state.drop_departed_neighbors({"n1"})
        state.register_interest("n1")
        state.record_justification_window(10.0)
        assert state.interest == ("n1",)
        assert state.settle_justification(now=5.0) == (1, 0)
        net = MicroNet()
        net.seed_authority("k")
        net.node(1).cache.states["k"] = pickle.loads(
            pickle.dumps(KeyState("k")))
        net.node(2).post_local_query("k")
        net.settle()
        assert net.node(1).cache.get("k").interest == ("n2",)
        assert net.node(2).cache.get("k").has_fresh(net.sim.now)


class TestNodeSharedEmpties:
    """A node costs what it holds: no queue, directory or refresh buffer
    until the first queued push, replica event or buffered refresh."""

    CHANNELS = ("_queues", "_tie_keys", "_longest")
    DIRECTORY = ("_entries", "_sequences")

    def _containers(self, node):
        return {
            **{n: getattr(node.channels, n) for n in self.CHANNELS},
            **{n: getattr(node.authority_index, n) for n in self.DIRECTORY},
            "_aggregation_buffers": node._aggregation_buffers,
        }

    def _private(self, node):
        """Names of the containers ``node`` no longer shares."""
        fresh = self._containers(MicroNet(length=1).node(0))
        return {
            name for name, held in self._containers(node).items()
            if held is not fresh[name]
        }

    def test_fresh_nodes_share_their_empties(self):
        net = MicroNet()
        assert self._private(net.node(0)) == set()
        assert self._private(net.node(1)) == set()
        assert net.node(0).channels._seq == 0

    def test_the_shared_empty_dict_refuses_writes(self):
        for write in (
            lambda d: d.__setitem__("k", 1),
            lambda d: d.setdefault("k", {}),
            lambda d: d.update(k=1),
        ):
            with pytest.raises(TypeError):
                write(NO_ITEMS)
        assert not NO_ITEMS and NO_ITEMS.pop("k", None) is None
        assert not pickle.loads(pickle.dumps(NO_ITEMS))

    def test_send_through_push_allocates_nothing(self):
        net = MicroNet()
        assert net.node(0).channels.push("n1", refresh())
        assert self._private(net.node(0)) == set()

    def test_first_queued_push_privatises_the_channel_containers(self):
        net = MicroNet(capacity=CapacityConfig(rate=1.0))
        channels = net.node(0).channels
        assert channels.push("n1", refresh())
        assert self._private(net.node(0)) == set(self.CHANNELS)
        assert self._private(net.node(1)) == set()
        assert channels.pending_counts() == (1, 1)
        assert channels.queue_length("n1") == 1
        assert net.node(1).channels.queue_length("n1") == 0
        queues = channels._queues
        channels.push("n2", refresh())
        assert channels._queues is queues  # bound once, not per push

    def test_first_replica_event_privatises_the_directory(self):
        net = MicroNet()
        net.seed_authority("k")
        assert self._private(net.authority) == set(self.DIRECTORY)
        assert self._private(net.node(1)) == set()
        assert net.authority.authority_index.owns("k")
        assert not net.node(1).authority_index.owns("k")

    def test_absorb_privatises_the_directory(self):
        net = MicroNet()
        net.seed_authority("k")
        slices = net.authority.authority_index.extract_keys(["k"])
        assert net.node(1).authority_index.absorb(slices) == 1
        assert self._private(net.node(1)) == set(self.DIRECTORY)
        assert self._private(net.node(2)) == set()

    def test_first_buffered_refresh_privatises_the_buffers(self):
        net = MicroNet()
        net.authority.refresh_aggregation_window = 2.0
        net.seed_authority("k")
        net.refresh_authority("k")
        assert self._private(net.authority) == (
            set(self.DIRECTORY) | {"_aggregation_buffers"}
        )
        net.settle(3.0)  # the flush pops the buffer again
        assert not net.authority._aggregation_buffers
        net.refresh_authority("k")
        assert list(net.authority._aggregation_buffers) == ["k"]
        assert not net.node(1)._aggregation_buffers

    def test_every_read_works_on_the_empties(self):
        node = MicroNet().node(1)
        channels, index = node.channels, node.authority_index
        assert channels.pending_counts() == (0, 0)
        assert channels.queue_length("n0") == 0
        channels._flush_all()
        channels._pump_once()
        assert list(index.keys()) == [] and not index.owns("k")
        assert index.entries("k") == [] and index.fresh_entries("k", 0.0) == []
        assert index.entry_count() == 0
        assert index.sweep_expired(1e9) == []
        assert index.remove("k", "k/r0", 0.0) is None
        assert index.extract_keys(["k"]) == {}
        assert index.absorb({}) == 0
        node._flush_refresh_buffer("k")
        assert self._private(node) == set()

    def test_capacity_cycle_drains_as_before(self):
        # unlimited -> rate -> unlimited: queued updates flush, and the
        # channel keeps working in both directions afterwards.
        net = MicroNet()
        sent = []
        channels = net.node(0).channels
        channels._send = lambda neighbor, u: sent.append(neighbor)
        channels.push("n1", refresh())
        channels.set_capacity(CapacityConfig(rate=0.001))
        for neighbor in ("n1", "n1", "n2"):
            channels.push(neighbor, refresh())
        assert sent == ["n1"] and channels.pending_counts() == (3, 3)
        channels.set_capacity(CapacityConfig())
        assert sorted(sent) == ["n1", "n1", "n1", "n2"]
        assert channels.pending_counts() == (0, 0)
        assert channels.forwarded == 4
        channels.set_capacity(CapacityConfig(rate=0.001))
        channels.push("n2", refresh())
        assert channels.pending_counts() == (1, 1)
        channels.set_capacity(CapacityConfig())
        assert len(sent) == 5 and net.sim.pending == 0

    def test_pickled_node_state_accepts_its_first_writes(self):
        # A restored node holds empties of its own; truth, not identity,
        # decides where a private container is bound.
        net = pickle.loads(pickle.dumps(MicroNet(
            capacity=CapacityConfig(rate=1.0))))
        assert not net.node(0).channels._queues
        net.seed_authority("k")
        net.node(2).post_local_query("k")
        net.settle()
        assert net.node(2).cache.get("k").has_fresh(net.sim.now)
        assert net.authority.channels._queues.keys() == {"n1"}
        assert not net.node(3).authority_index._entries


class TestLifecycle:
    def test_empty_state_discardable(self):
        assert KeyState("k").is_discardable(now=0.0)

    def test_pending_state_not_discardable(self):
        state = KeyState("k")
        state.pending_first_update = True
        assert not state.is_discardable(0.0)

    def test_interested_state_not_discardable(self):
        state = KeyState("k")
        state.register_interest("n1")
        assert not state.is_discardable(0.0)

    def test_fresh_entries_not_discardable(self):
        state = KeyState("k")
        state.apply_entry(entry(lifetime=100.0))
        assert not state.is_discardable(50.0)
        assert state.is_discardable(150.0)

    def test_local_waiters_not_discardable(self):
        state = KeyState("k")
        state.local_waiters = 1
        assert not state.is_discardable(0.0)


class TestNodeCache:
    def test_get_or_create_idempotent(self):
        cache = NodeCache()
        assert cache.get_or_create("k") is cache.get_or_create("k")
        assert len(cache) == 1

    def test_get_missing_returns_none(self):
        assert NodeCache().get("k") is None

    def test_contains_and_iter(self):
        cache = NodeCache()
        cache.get_or_create("a")
        cache.get_or_create("b")
        assert "a" in cache
        assert {s.key for s in cache} == {"a", "b"}

    def test_gc_drops_expired_stateless_keys(self):
        cache = NodeCache()
        state = cache.get_or_create("k")
        state.apply_entry(entry(lifetime=10.0))
        busy = cache.get_or_create("busy")
        busy.register_interest("n1")
        assert cache.gc(now=100.0) == 1
        assert "k" not in cache
        assert "busy" in cache

    def test_gc_purges_expired_entries_of_kept_keys(self):
        cache = NodeCache()
        state = cache.get_or_create("k")
        state.apply_entry(entry(replica="k/r0", lifetime=10.0))
        state.register_interest("n1")
        cache.gc(now=100.0)
        assert state.entries == {}

    def test_patch_interest_after_churn(self):
        cache = NodeCache()
        a = cache.get_or_create("a")
        a.register_interest("n1")
        a.register_interest("dead")
        cache.patch_interest_after_churn({"n1", "n2"})
        assert a.interest == ("n1",)

    def test_discard(self):
        cache = NodeCache()
        cache.get_or_create("k")
        cache.discard("k")
        cache.discard("k")  # idempotent
        assert "k" not in cache
