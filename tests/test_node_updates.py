"""Node-level tests for update handling (§2.6-§2.8) on a line topology."""

from helpers import MicroNet

from repro.core.channels import CapacityConfig
from repro.core.entry import IndexEntry
from repro.core.messages import UpdateMessage, UpdateType
from repro.core.policies import AllOutPolicy, SecondChancePolicy


def subscribe_chain(net, key="k", depth=3, lifetime=100.0):
    """Seed the authority and subscribe n1..n_depth via one query."""
    net.seed_authority(key, lifetime=lifetime)
    net.node(depth).post_local_query(key)
    net.settle()


class TestRefreshPropagation:
    def test_refresh_flows_to_interested_chain(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net)
        hops_before = net.metrics.update_hops[UpdateType.REFRESH]
        net.refresh_authority("k")
        net.settle()
        assert net.metrics.update_hops[UpdateType.REFRESH] == hops_before + 3

    def test_refresh_extends_cache_freshness(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net, lifetime=50.0)
        net.sim.run_until(45.0)
        net.refresh_authority("k", lifetime=50.0)
        net.settle()
        net.sim.run_until(70.0)  # past the original expiry
        assert net.node(3).cache.get("k").has_fresh(net.sim.now)

    def test_uninterested_nodes_receive_nothing(self):
        net = MicroNet(policy=AllOutPolicy())
        net.seed_authority("k")
        net.node(1).post_local_query("k")  # only n1 subscribes
        net.settle()
        net.refresh_authority("k")
        net.settle()
        assert net.node(2).cache.get("k") is None
        assert net.node(3).cache.get("k") is None

    def test_standard_mode_propagates_no_refreshes(self):
        net = MicroNet(coalesce=False, persistent_interest=False)
        subscribe_chain(net)
        net.refresh_authority("k")
        net.settle()
        assert net.metrics.update_hops[UpdateType.REFRESH] == 0
        assert net.metrics.overhead_cost == 0


class TestDeletePropagation:
    def test_delete_removes_cached_entries_downstream(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net)
        assert net.node(3).cache.get("k").entries
        from repro.core.messages import ReplicaEvent, ReplicaMessage

        net.authority.receive(
            ReplicaMessage(ReplicaEvent.DEATH, "k", "k/r0", "addr", 100.0),
            None,
        )
        net.settle()
        assert net.node(3).cache.get("k").entries == {}
        assert net.metrics.update_hops[UpdateType.DELETE] == 3

    def test_append_adds_new_replica_downstream(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net)
        from repro.core.messages import ReplicaEvent, ReplicaMessage

        net.authority.receive(
            ReplicaMessage(ReplicaEvent.BIRTH, "k", "k/r9", "addr9", 100.0),
            None,
        )
        net.settle()
        assert "k/r9" in net.node(3).cache.get("k").entries


class TestUpdateValidity:
    def test_expired_update_dropped_on_arrival(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net)
        stale = UpdateMessage(
            "k", UpdateType.REFRESH,
            (IndexEntry("k", "k/r0", "addr", 1.0, net.sim.now - 10.0, 99),),
            "k/r0", net.sim.now - 10.0,
        )
        net.transport.send("n1", "n2", stale)
        dropped_before = net.metrics.updates_dropped_expired
        net.settle()
        assert net.metrics.updates_dropped_expired == dropped_before + 1

    def test_stale_sequence_discarded_not_forwarded(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net)
        net.refresh_authority("k")  # sequence 2 propagates
        net.settle()
        old = UpdateMessage(
            "k", UpdateType.REFRESH,
            (IndexEntry("k", "k/r0", "addr", 100.0, net.sim.now, 1),),
            "k/r0", net.sim.now,
        )
        refresh_hops = net.metrics.update_hops[UpdateType.REFRESH]
        net.transport.send("n0", "n1", old)
        net.settle()
        assert net.metrics.updates_stale_discarded == 1
        # The stale copy cost its own hop but was not re-forwarded.
        assert net.metrics.update_hops[UpdateType.REFRESH] == refresh_hops + 1


class TestSecondChanceCutoff:
    def test_two_idle_intervals_cut_the_leaf(self):
        net = MicroNet(policy=SecondChancePolicy())
        subscribe_chain(net)
        net.refresh_authority("k")  # strike 1 at n3 (no queries since)
        net.settle()
        net.refresh_authority("k")  # strike 2 -> clear-bit
        net.settle()
        assert net.metrics.clear_bits_sent >= 1
        assert "n3" not in net.node(2).cache.get("k").interest

    def test_cut_node_stops_receiving(self):
        net = MicroNet(policy=SecondChancePolicy())
        subscribe_chain(net)
        for _ in range(4):
            net.refresh_authority("k")
            net.settle()
        seq_at_cut = max(
            e.sequence for e in net.node(3).cache.get("k").entries.values()
        )
        net.refresh_authority("k")
        net.settle()
        seq_after = max(
            e.sequence for e in net.node(3).cache.get("k").entries.values()
        )
        assert seq_after == seq_at_cut

    def test_queries_keep_subscription_alive(self):
        net = MicroNet(policy=SecondChancePolicy())
        subscribe_chain(net)
        for _ in range(4):
            net.node(3).post_local_query("k")  # stays popular
            net.refresh_authority("k")
            net.settle()
        assert "n3" in net.node(2).cache.get("k").interest
        assert net.metrics.clear_bits_sent == 0

    def test_clear_bit_cascades_when_chain_idle(self):
        net = MicroNet(policy=SecondChancePolicy())
        subscribe_chain(net)
        for _ in range(5):
            net.refresh_authority("k")
            net.settle()
        # Leaf cut first, then intermediates; eventually the authority's
        # own interest bit for n1 clears.
        assert net.node(0).cache.get("k").interest == ()

    def test_requery_resubscribes_after_cut(self):
        net = MicroNet(policy=SecondChancePolicy())
        subscribe_chain(net, lifetime=30.0)
        for _ in range(3):
            net.refresh_authority("k", lifetime=30.0)
            net.settle()
        assert net.node(0).cache.get("k").interest == ()
        net.sim.run_until(net.sim.now + 40.0)  # let entries expire
        net.node(3).post_local_query("k")
        net.settle()
        assert "n3" in net.node(2).cache.get("k").interest
        net.refresh_authority("k", lifetime=30.0)
        net.settle()
        assert net.node(3).cache.get("k").has_fresh(net.sim.now)


class TestPushLevelGating:
    def test_updates_stop_at_level(self):
        net = MicroNet(policy=AllOutPolicy(push_level=1))
        subscribe_chain(net)
        net.refresh_authority("k")
        net.settle()
        # Authority (depth 0) may forward to depth 1; n1 may not forward.
        assert net.metrics.update_hops[UpdateType.REFRESH] == 1
        assert net.metrics.updates_suppressed >= 1

    def test_level_zero_squelches_everything(self):
        net = MicroNet(policy=AllOutPolicy(push_level=0))
        subscribe_chain(net)
        net.refresh_authority("k")
        net.settle()
        assert net.metrics.update_hops[UpdateType.REFRESH] == 0

    def test_responses_flow_despite_level_zero(self):
        net = MicroNet(policy=AllOutPolicy(push_level=0))
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        assert net.metrics.answers_delivered == 1

    def test_waiter_rescued_when_maintenance_gated(self):
        # A refresh that doubles as the response must still reach waiting
        # downstream queriers even when the push-level gate blocks it.
        net = MicroNet(policy=AllOutPolicy(push_level=1), pfu_timeout=1000.0)
        net.seed_authority("k", lifetime=30.0)
        net.node(3).post_local_query("k")
        net.settle()
        net.sim.run_until(net.sim.now + 40.0)  # all entries expire
        net.node(3).post_local_query("k")  # freshness miss chain
        net.settle()
        assert net.metrics.answers_delivered == 2


class TestCapacity:
    def test_zero_capacity_degrades_to_standard(self):
        net = MicroNet(
            policy=AllOutPolicy(), capacity=CapacityConfig(fraction=0.0)
        )
        subscribe_chain(net)
        net.refresh_authority("k")
        net.settle()
        assert net.metrics.update_hops[UpdateType.REFRESH] == 0
        # But queries are still answered (responses bypass the fraction).
        net.sim.run_until(net.sim.now + 150.0)
        net.node(3).post_local_query("k")
        net.settle()
        assert net.metrics.answers_delivered == 2

    def test_rate_capacity_defers_refreshes(self):
        net = MicroNet(
            policy=AllOutPolicy(), capacity=CapacityConfig(rate=0.5)
        )
        subscribe_chain(net)
        net.refresh_authority("k")
        net.sim.run_until(net.sim.now + 1.0)
        first_leg = net.metrics.update_hops[UpdateType.REFRESH]
        net.sim.run_until(net.sim.now + 10.0)
        assert net.metrics.update_hops[UpdateType.REFRESH] >= first_leg
        assert net.metrics.update_hops[UpdateType.REFRESH] == 3

    def test_set_capacity_at_runtime(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net)
        net.nodes["n0"].set_capacity(CapacityConfig(fraction=0.0))
        net.refresh_authority("k")
        net.settle()
        assert net.metrics.update_hops[UpdateType.REFRESH] == 0
        net.nodes["n0"].set_capacity(CapacityConfig())
        net.refresh_authority("k")
        net.settle()
        assert net.metrics.update_hops[UpdateType.REFRESH] == 3


class TestJustificationAccounting:
    def test_first_time_updates_always_justified(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(2).post_local_query("k")
        net.settle()
        assert net.metrics.justified_updates >= 1
        assert net.metrics.unjustified_updates == 0

    def test_query_justifies_recent_refresh(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net)
        net.refresh_authority("k")
        net.settle()
        before = net.metrics.justified_updates
        net.node(3).post_local_query("k")
        assert net.metrics.justified_updates > before

    def test_unseen_window_counts_unjustified(self):
        net = MicroNet(policy=AllOutPolicy())
        subscribe_chain(net, lifetime=20.0)
        net.refresh_authority("k", lifetime=20.0)
        net.settle()
        net.sim.run_until(net.sim.now + 50.0)  # window closes unseen
        net.refresh_authority("k", lifetime=20.0)
        net.settle()
        assert net.metrics.unjustified_updates > 0
