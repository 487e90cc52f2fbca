"""Node-level tests for the §3.6 authority-side mitigation techniques."""

import pytest
from helpers import MicroNet

from repro.core.messages import ReplicaEvent, ReplicaMessage, UpdateType
from repro.core.node import NodeEnv
from repro.core.policies import AllOutPolicy


def subscribe(net, key="k", lifetime=100.0, replicas=1):
    net.seed_authority(key, lifetime=lifetime, replicas=replicas)
    net.node(3).post_local_query(key)
    net.settle()


class TestRefreshAggregation:
    def make_net(self, window):
        net = MicroNet(policy=AllOutPolicy())
        for node in net.nodes.values():
            node.env.refresh_aggregation_window = window
        return net

    def test_refreshes_within_window_batch_into_one_update(self):
        net = self.make_net(window=2.0)
        subscribe(net, replicas=3)
        hops_before = net.metrics.update_hops[UpdateType.REFRESH]
        for replica in range(3):
            net.refresh_authority("k", replica=replica)
        net.settle(5.0)
        # One batched refresh per hop of the 3-node chain, not three.
        assert (
            net.metrics.update_hops[UpdateType.REFRESH] == hops_before + 3
        )

    def test_batched_update_carries_all_replicas(self):
        net = self.make_net(window=2.0)
        subscribe(net, replicas=3)
        for replica in range(3):
            net.refresh_authority("k", replica=replica)
        net.settle(5.0)
        state = net.node(3).cache.get("k")
        timestamps = {
            e.replica_id: e.timestamp for e in state.entries.values()
        }
        refresh_time = min(timestamps.values())
        assert len(timestamps) == 3
        assert all(t >= refresh_time for t in timestamps.values())

    def test_refreshes_outside_window_flush_separately(self):
        net = self.make_net(window=1.0)
        subscribe(net, replicas=2)
        hops_before = net.metrics.update_hops[UpdateType.REFRESH]
        net.refresh_authority("k", replica=0)
        net.settle(3.0)  # window closes, batch of one flushes
        net.refresh_authority("k", replica=1)
        net.settle(3.0)
        assert (
            net.metrics.update_hops[UpdateType.REFRESH] == hops_before + 6
        )

    def test_deletes_bypass_aggregation(self):
        net = self.make_net(window=10.0)
        subscribe(net, replicas=1)
        net.authority.receive(
            ReplicaMessage(ReplicaEvent.DEATH, "k", "k/r0", "addr", 100.0),
            None,
        )
        net.settle(1.0)  # well inside the window
        assert net.metrics.update_hops[UpdateType.DELETE] == 3

    def test_latest_version_wins_within_batch(self):
        net = self.make_net(window=5.0)
        subscribe(net, replicas=1)
        net.refresh_authority("k", replica=0)
        net.sim.run_until(net.sim.now + 1.0)
        net.refresh_authority("k", replica=0)  # newer version, same window
        net.settle(10.0)
        state = net.node(3).cache.get("k")
        [entry] = state.entries.values()
        assert entry.sequence == 3  # birth=1, then two refreshes

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            MicroNetWithWindow(-1.0)


def MicroNetWithWindow(window):
    net = MicroNet()
    return NodeEnv(
        net.sim, net.transport, net.overlay, net.policy, net.metrics,
        refresh_aggregation_window=window,
    )


class TestRefreshSampling:
    def make_net(self, fraction):
        net = MicroNet(policy=AllOutPolicy())
        for node in net.nodes.values():
            node.env.refresh_sample_fraction = fraction
        return net

    def test_sampling_suppresses_some_refreshes(self):
        net = self.make_net(fraction=0.3)
        subscribe(net)
        for _ in range(40):
            net.refresh_authority("k")
            net.settle(0.2)
        propagated = net.metrics.update_hops[UpdateType.REFRESH] / 3
        assert 4 <= propagated <= 24  # ~12 expected of 40
        assert net.metrics.updates_suppressed > 0

    def test_authority_directory_still_updated_when_suppressed(self):
        net = self.make_net(fraction=0.3)
        subscribe(net)
        for _ in range(10):
            net.refresh_authority("k")
            net.settle(0.2)
        [entry] = net.authority.authority_index.entries("k")
        assert entry.sequence == 11  # every refresh applied locally

    def test_full_fraction_propagates_everything(self):
        net = self.make_net(fraction=1.0)
        subscribe(net)
        net.refresh_authority("k")
        net.settle()
        assert net.metrics.update_hops[UpdateType.REFRESH] == 3

    def test_invalid_fraction_rejected(self):
        net = MicroNet()
        with pytest.raises(ValueError):
            NodeEnv(
                net.sim, net.transport, net.overlay, net.policy, net.metrics,
                refresh_sample_fraction=0.0,
            )


class TestConfigPlumbing:
    def test_config_carries_options(self):
        from repro.core.protocol import CupConfig, CupNetwork

        config = CupConfig(
            num_nodes=4, total_keys=1, query_rate=1.0,
            refresh_aggregation_window=5.0, refresh_sample_fraction=0.5,
        )
        net = CupNetwork(config)
        node = next(iter(net.nodes.values()))
        assert node.env.refresh_aggregation_window == 5.0
        assert node.env.refresh_sample_fraction == 0.5

    def test_config_validation(self):
        from repro.core.protocol import CupConfig

        with pytest.raises(ValueError):
            CupConfig(refresh_aggregation_window=-1.0).validate()
        with pytest.raises(ValueError):
            CupConfig(refresh_sample_fraction=0.0).validate()
