"""Tests for CupConfig validation and CupNetwork assembly/churn."""

import gc
import tracemalloc

import pytest

from repro.core.channels import CapacityConfig
from repro.core.policies import SecondChancePolicy
from repro.core.protocol import CupConfig, CupNetwork, build_overlay
from repro.experiments.config import SMALL


def quick_config(**overrides):
    base = dict(
        num_nodes=16, total_keys=2, query_rate=2.0, seed=3,
        entry_lifetime=50.0, query_start=100.0, query_duration=300.0,
        drain=100.0, gc_interval=50.0,
    )
    base.update(overrides)
    return CupConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        CupConfig().validate()

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            quick_config(mode="turbo").validate()

    def test_invalid_overlay(self):
        with pytest.raises(ValueError):
            quick_config(overlay_type="hypercube").validate()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            quick_config(query_rate=0.0).validate()

    @pytest.mark.parametrize("field", [
        "query_rate", "entry_lifetime", "pfu_timeout",
        "refresh_aggregation_window", "capacity_rate",
    ])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), -1.0, 0.0, "soon",
    ])
    def test_non_numbers_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite "
                                             "number > 0"):
            quick_config(**{field: value}).validate()

    def test_invalid_capacity_fraction(self):
        with pytest.raises(ValueError):
            quick_config(capacity_fraction=2.0).validate()

    def test_invalid_key_distribution(self):
        with pytest.raises(ValueError):
            quick_config(key_distribution="pareto").validate()

    def test_total_keys_overrides_keys_per_node(self):
        assert quick_config(total_keys=7).resolved_total_keys() == 7

    def test_keys_per_node_scaling(self):
        config = quick_config(total_keys=None, keys_per_node=2.0)
        assert config.resolved_total_keys() == 32

    def test_time_properties(self):
        config = quick_config()
        assert config.query_end == 400.0
        assert config.sim_end == 500.0

    def test_variant_replaces_fields(self):
        config = quick_config()
        twin = config.variant(mode="standard")
        assert twin.mode == "standard"
        assert twin.seed == config.seed
        assert config.mode == "cup"

    def test_policy_resolution_from_string(self):
        assert quick_config(policy="linear:0.5").resolved_policy().alpha == 0.5

    def test_policy_object_passthrough(self):
        policy = SecondChancePolicy()
        assert quick_config(policy=policy).resolved_policy() is policy


class TestNetworkBuild:
    def test_builds_power_of_two_grid(self):
        net = CupNetwork(quick_config(num_nodes=16))
        assert len(net.nodes) == 16

    def test_builds_join_based_can_for_odd_sizes(self):
        net = CupNetwork(quick_config(num_nodes=10))
        assert len(net.nodes) == 10

    def test_builds_chord(self):
        net = CupNetwork(quick_config(overlay_type="chord"))
        assert len(net.nodes) == 16

    def test_keys_created(self):
        net = CupNetwork(quick_config(total_keys=5))
        assert len(net.keys) == 5

    def test_replica_population(self):
        net = CupNetwork(quick_config(total_keys=3, replicas_per_key=4))
        assert len(net.replicas) == 12

    def test_run_returns_summary(self):
        summary = CupNetwork(quick_config()).run()
        assert summary.queries_posted > 0
        assert summary.total_cost == summary.miss_cost + summary.overhead_cost

    def test_same_seed_same_results(self):
        a = CupNetwork(quick_config()).run()
        b = CupNetwork(quick_config()).run()
        assert a == b

    def test_different_seeds_differ(self):
        a = CupNetwork(quick_config(seed=1)).run()
        b = CupNetwork(quick_config(seed=2)).run()
        assert a != b

    def test_same_workload_across_modes(self):
        cup = CupNetwork(quick_config()).run()
        std = CupNetwork(quick_config(mode="standard")).run()
        assert cup.queries_posted == std.queries_posted

    def test_jittered_link_delays(self):
        config = quick_config(link_delay=0.05, link_delay_jitter=0.02)
        net = CupNetwork(config)
        delays = {
            net.transport.link_delay(a, b)
            for a in net.nodes for b in net.overlay.neighbors(a)
        }
        assert len(delays) > 1

    def test_post_query_direct(self):
        net = CupNetwork(quick_config())
        net.run_until(60.0)  # replicas announced
        node_id = next(iter(net.nodes))
        net.post_query(node_id, net.keys[0])
        assert net.metrics.queries_posted == 1


def clean_cell(num_nodes=1024):
    """The macro cell cupbench times (seed 42: 74,716 queries)."""
    return SMALL.config(
        seed=42, num_nodes=num_nodes, query_rate=SMALL.rate(100)
    )


class TestGridStaysArithmetic:
    """No healthy run reads a zone, and the ones that read neighbor sets
    get them in the order a built grid would hand them out."""

    def test_clean_cell_never_builds_the_grid(self):
        net = CupNetwork(clean_cell())
        summary = net.run()
        assert (summary.queries_posted, summary.total_cost) == (74716, 15358)
        assert net.overlay.table_builds == 0 and not net.overlay._records
        assert len(net.overlay) == 1024 and 1023 in net.overlay

    @staticmethod
    def _twins(config):
        built = build_overlay(config)
        built.state(0)
        assert built.table_builds == 1
        return CupNetwork(config), CupNetwork(config, topology=built)

    def test_jittered_links_match_a_prebuilt_grid(self):
        lazy, eager = self._twins(
            quick_config(num_nodes=64, link_delay_jitter=0.02)
        )
        for a in lazy.nodes:
            for b in eager.overlay.neighbors(a):
                assert lazy.transport.link_delay(a, b) == (
                    eager.transport.link_delay(a, b)
                )
        assert lazy.run() == eager.run()
        assert lazy.sim.events_processed == eager.sim.events_processed
        assert lazy.overlay.table_builds == 0

    def test_keepalive_matches_a_prebuilt_grid(self):
        lazy, eager = self._twins(quick_config(num_nodes=64))
        for net in (lazy, eager):
            net.enable_keepalive(period=10.0)
        assert lazy.run() == eager.run()
        assert lazy.sim.events_processed == eager.sim.events_processed
        assert lazy.transport.sent == eager.transport.sent
        assert lazy.overlay.table_builds == 0


class TestBytesPerNode:
    """A node costs what it holds (tracemalloc, n = 1,024)."""

    def test_built_and_after_the_clean_cell(self):
        CupNetwork(clean_cell(64)).run()  # imports, lru caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net = CupNetwork(clean_cell())
            gc.collect()
            built = tracemalloc.get_traced_memory()[0] - before
            net.run()
            gc.collect()
            after = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 2,004 and 3,056 with eager zones, seven private containers and
        # a CapacityConfig per node; 800 and 1,852 without; 700 and 1,458
        # with interest as a sorted tuple, strikes as an int, no
        # bound-method table and a per-key next-hop memo; 318 and 1,070
        # with one NodeEnv per network, channels only under a capacity
        # limit and one shared empty authority index (Python 3.11).
        assert built / 1024 <= 350
        assert after / 1024 <= 1150


class TestCapacityHooks:
    def test_shared_initial_capacity_is_replaced_not_written(self):
        net = CupNetwork(quick_config(capacity_rate=5.0))
        a, b = (net.nodes[i].channels for i in (0, 1))
        assert a.capacity is b.capacity
        net.set_node_capacity(0, CapacityConfig(fraction=0.5))
        assert (a.capacity.fraction, a.capacity.rate) == (0.5, None)
        assert (b.capacity.fraction, b.capacity.rate) == (1.0, 5.0)
        assert net.join_node("late").channels.capacity is b.capacity

    def test_set_node_capacity(self):
        net = CupNetwork(quick_config())
        node_id = next(iter(net.nodes))
        net.set_node_capacity(node_id, CapacityConfig(fraction=0.5))
        assert net.nodes[node_id].channels.capacity.fraction == 0.5


class TestChurn:
    def test_join_adds_member(self):
        net = CupNetwork(quick_config())
        net.run_until(60.0)
        net.join_node("newbie")
        assert "newbie" in net.nodes
        assert "newbie" in net.live_node_ids()

    def test_join_duplicate_rejected(self):
        net = CupNetwork(quick_config())
        with pytest.raises(ValueError):
            net.join_node(0)

    def test_join_hands_over_index_entries(self):
        net = CupNetwork(quick_config(num_nodes=4, total_keys=32))
        net.run_until(60.0)  # all replicas born
        total_before = sum(
            n.authority_index.entry_count() for n in net.nodes.values()
        )
        net.join_node("newbie")
        total_after = sum(
            n.authority_index.entry_count() for n in net.nodes.values()
        )
        assert total_after == total_before
        # Every key's entries now live at its current authority.
        for key in net.keys:
            owner = net.overlay.authority(key)
            for node_id, node in net.nodes.items():
                if node.authority_index.owns(key):
                    assert node_id == owner

    def test_graceful_leave_hands_over(self):
        net = CupNetwork(quick_config(num_nodes=8, total_keys=16))
        net.run_until(60.0)
        total_before = sum(
            n.authority_index.entry_count() for n in net.nodes.values()
        )
        victim = next(iter(net.nodes))
        net.leave_node(victim, graceful=True)
        total_after = sum(
            n.authority_index.entry_count() for n in net.nodes.values()
        )
        assert total_after == total_before

    def test_ungraceful_leave_loses_entries(self):
        net = CupNetwork(quick_config(num_nodes=8, total_keys=16))
        net.run_until(60.0)
        victim = max(
            net.nodes,
            key=lambda n: net.nodes[n].authority_index.entry_count(),
        )
        lost = net.nodes[victim].authority_index.entry_count()
        assert lost > 0
        total_before = sum(
            n.authority_index.entry_count() for n in net.nodes.values()
        )
        net.leave_node(victim, graceful=False)
        total_after = sum(
            n.authority_index.entry_count() for n in net.nodes.values()
        )
        assert total_after == total_before - lost

    def test_leave_patches_interest_bits(self):
        net = CupNetwork(quick_config(num_nodes=8, total_keys=1))
        net.run_until(60.0)
        key = net.keys[0]
        # Subscribe everyone by querying from every node.
        for node_id in list(net.nodes):
            net.post_query(node_id, key)
        net.run_until(70.0)
        victim = next(
            n for n in net.nodes if net.overlay.authority(key) != n
        )
        net.leave_node(victim, graceful=True)
        for node in net.nodes.values():
            state = node.cache.get(key)
            if state is not None:
                assert victim not in state.interest

    def test_queries_still_answered_after_churn(self):
        net = CupNetwork(quick_config(num_nodes=8, total_keys=4))
        net.run_until(60.0)
        victim = next(iter(net.nodes))
        net.leave_node(victim, graceful=True)
        net.join_node("replacement")
        answered_before = net.metrics.answers_delivered
        hits_before = net.metrics.local_hits
        for key in net.keys:
            poster = next(iter(net.nodes))
            net.post_query(poster, key)
        net.run_until(net.sim.now + 20.0)
        answered = (
            net.metrics.answers_delivered - answered_before
            + net.metrics.local_hits - hits_before
        )
        assert answered == len(net.keys)

    def test_leave_unknown_rejected(self):
        net = CupNetwork(quick_config())
        with pytest.raises(ValueError):
            net.leave_node("ghost")
