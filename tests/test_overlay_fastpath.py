"""The overlay routing fast path: memoization, interning, invalidation.

Three layers of guarantees:

* **Equivalence** — the memoized ``next_hop``/``authority`` fast paths
  (precomputed finger tables, bisect-based Pastry affinity, CAN grid
  arithmetic) must return exactly what the unmemoized reference
  implementations return, for random memberships and keys on all three
  overlays.  Hypothesis drives the membership/churn/key space.
* **Churn invalidation** — results served from the (node, key) memo must
  change correctly after ``leave()``/``join()`` mid-run: the epoch bump
  has to drop every stale entry (the churn-divergence hazard documented
  in PR 2).
* **Interning / bounded memos** — each key string is pushed through
  hashlib once; the hash memo and routing memos are bounded.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.base import InternTable, RoutingError
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.hashing import _hash_to_int, hash_memo_stats, hash_to_int
from repro.overlay.pastry import PastryOverlay

OVERLAY_BUILDERS = {
    "chord": lambda ids: ChordOverlay.build(ids, bits=32),
    "pastry": lambda ids: PastryOverlay.build(ids),
    "can": lambda ids: CanOverlay.perfect_grid(len(ids)),
}


def _assert_routing_matches_reference(overlay, keys):
    """Every (member, key) routing decision equals the reference's."""
    for key in keys:
        assert overlay.authority(key) == overlay.authority_reference(key)
        for node_id in overlay.node_ids():
            assert overlay.next_hop(node_id, key) == overlay.next_hop_reference(
                node_id, key
            ), (type(overlay).__name__, node_id, key)


# ----------------------------------------------------------------------
# Property tests: memoized fast path == unmemoized reference
# ----------------------------------------------------------------------


class TestMemoizedMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=48),
        churn_ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=6
        ),
        key_seeds=st.lists(st.integers(0, 1000), min_size=1, max_size=8),
    )
    def test_chord_property(self, n, churn_ops, key_seeds):
        overlay = ChordOverlay.build([f"n{i}" for i in range(n)], bits=32)
        self._churn(overlay, churn_ops)
        _assert_routing_matches_reference(
            overlay, [f"key-{s}" for s in key_seeds]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=48),
        churn_ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=6
        ),
        key_seeds=st.lists(st.integers(0, 1000), min_size=1, max_size=8),
    )
    def test_pastry_property(self, n, churn_ops, key_seeds):
        overlay = PastryOverlay.build([f"n{i}" for i in range(n)])
        self._churn(overlay, churn_ops)
        _assert_routing_matches_reference(
            overlay, [f"key-{s}" for s in key_seeds]
        )

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=5),
        churn_ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=5
        ),
        key_seeds=st.lists(st.integers(0, 1000), min_size=1, max_size=6),
    )
    def test_can_property(self, k, churn_ops, key_seeds):
        overlay = CanOverlay.perfect_grid(2 ** k)
        self._churn(overlay, churn_ops, min_members=2)
        _assert_routing_matches_reference(
            overlay, [f"key-{s}" for s in key_seeds]
        )

    @staticmethod
    def _churn(overlay, ops, min_members=3):
        for is_join, seed in ops:
            members = sorted(overlay.node_ids(), key=str)
            if is_join or len(members) <= min_members:
                node_id = f"joiner-{seed}"
                if node_id in set(members):
                    continue
                try:
                    overlay.join(node_id)
                except ValueError:
                    pass  # position collision: skip, keep the property
            else:
                overlay.leave(members[seed % len(members)])


# ----------------------------------------------------------------------
# Lazy grid == eager grid: zones built on first need change no answer
# ----------------------------------------------------------------------


def _zones(overlay):
    return {
        node_id: list(overlay.state(node_id).zones)
        for node_id in overlay.node_ids()
    }


class TestLazyGridMatchesEager:
    """A perfect grid is arithmetic until something needs its zones.

    Twin overlays, one materialised at birth (``state`` is a reader),
    must agree on everything an ``Overlay`` answers — before the lazy
    twin has built a single record, and after any churn sequence, which
    builds them exactly once.
    """

    @staticmethod
    def _assert_same_answers(lazy, eager, keys):
        assert list(lazy.node_ids()) == list(eager.node_ids())
        assert len(lazy) == len(eager)
        for node_id in eager.node_ids():
            assert node_id in lazy
            # Iteration order included: seeded link-jitter draws and the
            # keep-alive monitors walk this set.
            assert list(lazy.neighbors(node_id)) == list(
                eager.neighbors(node_id)
            )
        for key in keys:
            assert lazy.authority(key) == eager.authority(key)
            for node_id in eager.node_ids():
                assert lazy.next_hop(node_id, key) == eager.next_hop(
                    node_id, key
                ), (node_id, key)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=10),
        churn_ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=5
        ),
        key_seeds=st.lists(st.integers(0, 1000), min_size=1, max_size=4),
    )
    def test_twins_agree_before_and_after_churn(self, k, churn_ops, key_seeds):
        keys = [f"key-{s}" for s in key_seeds]
        lazy = CanOverlay.perfect_grid(2 ** k)
        eager = CanOverlay.perfect_grid(2 ** k)
        eager.state(0)
        assert (lazy.table_builds, eager.table_builds) == (0, 1)

        self._assert_same_answers(lazy, eager, keys)
        assert "joiner-0" not in lazy and 2 ** k not in lazy
        with pytest.raises(KeyError):
            lazy.neighbors(2 ** k)
        assert lazy.table_builds == 0  # none of the above needed a zone

        for overlay in (lazy, eager):
            TestMemoizedMatchesReference._churn(
                overlay, churn_ops, min_members=2
            )
        self._assert_same_answers(lazy, eager, keys)
        assert _zones(lazy) == _zones(eager)
        for overlay in (lazy, eager):
            _assert_routing_matches_reference(overlay, keys)
        assert (lazy.table_builds, eager.table_builds) == (1, 1)

    def test_each_reader_of_ownership_records_builds_them_once(self):
        readers = {
            "state": lambda o: o.state(3),
            "join": lambda o: o.join("newcomer"),
            "leave": lambda o: o.leave(5),
            "authority_reference": lambda o: o.authority_reference("k"),
            "next_hop of a stranger": lambda o: pytest.raises(
                RoutingError, o.next_hop, "stranger", "k"
            ),
        }
        for name, read in readers.items():
            overlay = CanOverlay.perfect_grid(16)
            assert overlay.table_builds == 0, name
            read(overlay)
            overlay.state(3)
            assert overlay.table_builds == 1, name

    def test_unbuilt_grid_pickles_as_its_dimensions(self):
        overlay = CanOverlay.perfect_grid(1024)
        overlay.next_hop(0, "k")
        restored = pickle.loads(pickle.dumps(overlay))
        assert restored.table_builds == 0
        assert len(pickle.dumps(overlay)) < 1024  # 100 kB once built
        self._assert_same_answers(restored, overlay, ["k", "other"])
        restored.join("newcomer")
        overlay.join("newcomer")
        self._assert_same_answers(restored, overlay, ["k", "other"])
        assert _zones(restored) == _zones(overlay)


# ----------------------------------------------------------------------
# Churn invalidation: the stale-cache hazard, per overlay
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(OVERLAY_BUILDERS))
class TestChurnInvalidatesMemo:
    def _build(self, name, n=16):
        return OVERLAY_BUILDERS[name]([f"m{i}" if name != "can" else i
                                       for i in range(n)])

    def test_next_hop_changes_after_leave_mid_run(self, name):
        """A routed-through node departs: memoized hops must not point at
        the corpse, and every decision must re-match the reference."""
        overlay = self._build(name)
        key = "hot-key"
        # Warm the (node, key) memo for every member.
        route_before = overlay.route(next(iter(overlay.node_ids())), key)
        for node_id in list(overlay.node_ids()):
            overlay.next_hop(node_id, key)

        # Remove the first forwarding target on the warmed route (or the
        # authority itself when the start owns the key).
        victim = route_before[1] if len(route_before) > 1 else route_before[0]
        overlay.leave(victim)

        assert victim not in set(overlay.node_ids())
        for node_id in overlay.node_ids():
            hop = overlay.next_hop(node_id, key)
            assert hop != victim, "memo served a departed node"
            assert hop == overlay.next_hop_reference(node_id, key)
        # The full route still terminates, without the departed member.
        survivor = next(iter(overlay.node_ids()))
        assert victim not in overlay.route(survivor, key)

    def test_authority_reassigned_after_owner_leaves(self, name):
        overlay = self._build(name)
        key = "owned-key"
        owner = overlay.authority(key)
        if len(list(overlay.node_ids())) < 2:
            pytest.skip("need a successor to absorb the key")
        overlay.leave(owner)
        new_owner = overlay.authority(key)
        assert new_owner != owner
        assert new_owner == overlay.authority_reference(key)

    def test_join_also_invalidates(self, name):
        """Joins must drop the memo too: a new member can capture keys."""
        overlay = self._build(name)
        keys = [f"key-{i}" for i in range(40)]
        for key in keys:
            overlay.authority(key)
            for node_id in list(overlay.node_ids()):
                overlay.next_hop(node_id, key)
        overlay.join("latecomer" if name != "can" else 999)
        _assert_routing_matches_reference(overlay, keys)


# ----------------------------------------------------------------------
# Interning and bounded memos
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(OVERLAY_BUILDERS))
def test_next_hop_memo_stays_bounded_and_correct(name):
    """More (node, key) pairs than the limit: the memo clears instead of
    growing, and every answer, memoized or not, equals the reference."""
    overlay = OVERLAY_BUILDERS[name](
        [f"m{i}" if name != "can" else i for i in range(16)]
    )
    overlay.route_cache_limit = 7
    pairs = [(node_id, f"key-{k}")
             for k in range(5) for node_id in overlay.node_ids()]
    assert len(pairs) > overlay.route_cache_limit
    for node_id, key in pairs + pairs[::-1]:
        assert overlay.next_hop(node_id, key) == overlay.next_hop_reference(
            node_id, key
        )
        held = sum(len(hops) for hops in overlay._next_hop_cache.values())
        assert held == overlay._next_hop_entries <= overlay.route_cache_limit


class TestInternTable:
    def test_hashes_once(self):
        calls = []

        def fn(value):
            calls.append(value)
            return len(value)

        intern = InternTable(fn)
        assert intern("abc") == 3
        assert intern("abc") == 3
        assert calls == ["abc"]
        assert intern.misses == 1

    def test_bounded(self):
        intern = InternTable(len, max_size=4)
        for i in range(40):
            intern(f"value-{i}")
        assert len(intern) <= 4

    def test_rejects_silly_bound(self):
        with pytest.raises(ValueError):
            InternTable(len, max_size=0)

    def test_chord_key_position_interned(self):
        overlay = ChordOverlay.build(["a", "b", "c"])
        baseline = overlay._key_position.misses
        for _ in range(5):
            overlay.key_position("some-key")
        assert overlay._key_position.misses == baseline + 1

    def test_can_key_point_interned_across_epochs(self):
        overlay = CanOverlay.perfect_grid(4)
        point = overlay.key_point("k")
        overlay.join("newcomer")  # epoch bump must NOT drop the interning
        assert overlay.key_point("k") is point


class TestHashMemo:
    def test_memo_serves_repeat_lookups(self):
        before = _hash_to_int.cache_info()
        value = hash_to_int("memo-probe-key", 32, salt="t")
        hits_before = _hash_to_int.cache_info().hits
        for _ in range(10):
            assert hash_to_int("memo-probe-key", 32, salt="t") == value
        assert _hash_to_int.cache_info().hits >= hits_before + 10
        assert before.maxsize is not None  # bounded, not unbounded

    def test_distinct_parameters_distinct_entries(self):
        assert hash_to_int("k", 32, salt="a") != hash_to_int("k", 32, salt="b")
        assert hash_to_int("k", 16) == hash_to_int("k", 16)
        assert hash_to_int("k", 16) < (1 << 16)

    def test_validation_still_raises(self):
        with pytest.raises(ValueError):
            hash_to_int("k", 0)
        with pytest.raises(TypeError):
            hash_to_int(42)

    def test_stats_shape(self):
        stats = hash_memo_stats()
        assert set(stats) == {"int", "unit_point"}
        assert all("hits" in s for s in stats.values())


# ----------------------------------------------------------------------
# Setup-cost accounting
# ----------------------------------------------------------------------


class TestSetupCostAccounting:
    def test_overlay_accumulates_table_builds(self):
        overlay = ChordOverlay.build([f"n{i}" for i in range(8)])
        builds_after_construction = overlay.table_builds
        overlay.next_hop("n0", "k")  # forces one finger-table build
        assert overlay.table_builds > builds_after_construction
        assert overlay.table_build_seconds >= 0.0

    def test_network_reports_routing_build_cost(self):
        from repro.core.protocol import CupConfig, CupNetwork

        net = CupNetwork(CupConfig(num_nodes=16, query_duration=10.0,
                                   query_start=1.0, drain=1.0))
        report = net.metrics.setup_cost_report()
        assert report["routing_build_seconds"] > 0.0
        assert report["routing_table_builds"] >= 1
        net.run()
        report = net.metrics.setup_cost_report()
        assert report["routing_table_builds"] >= 1
