"""Tests for the §2.8 channel priority profiles."""

import pytest

from repro.core.channels import (
    DEFAULT_PRIORITIES,
    FLASH_CROWD_PRIORITIES,
    PRIORITY_PROFILES,
    CapacityConfig,
    OutgoingUpdateChannels,
)
from repro.core.entry import IndexEntry
from repro.core.messages import UpdateMessage, UpdateType
from repro.core.protocol import CupConfig, CupNetwork
from repro.sim.engine import Simulator


def update(update_type):
    entry = IndexEntry("k", "k/r0", "addr", 100.0, 0.0)
    return UpdateMessage("k", update_type, (entry,), "k/r0", 0.0)


class TestProfiles:
    def test_profiles_registered(self):
        assert PRIORITY_PROFILES["latency"] is DEFAULT_PRIORITIES
        assert PRIORITY_PROFILES["flash-crowd"] is FLASH_CROWD_PRIORITIES

    def test_every_profile_covers_every_type(self):
        for profile in PRIORITY_PROFILES.values():
            assert set(profile) == set(UpdateType)

    def test_first_time_always_first(self):
        for profile in PRIORITY_PROFILES.values():
            assert profile[UpdateType.FIRST_TIME] == min(profile.values())

    def test_flash_crowd_promotes_appends(self):
        assert (
            FLASH_CROWD_PRIORITIES[UpdateType.APPEND]
            < FLASH_CROWD_PRIORITIES[UpdateType.REFRESH]
        )
        assert (
            DEFAULT_PRIORITIES[UpdateType.APPEND]
            > DEFAULT_PRIORITIES[UpdateType.REFRESH]
        )


class TestDrainOrder:
    def drain_order(self, priorities):
        sim = Simulator()
        sent = []
        channels = OutgoingUpdateChannels(
            sim, lambda n, u: sent.append(u.update_type),
            capacity=CapacityConfig(rate=100.0), priorities=priorities,
        )
        channels.push("n1", update(UpdateType.REFRESH))
        channels.push("n1", update(UpdateType.APPEND))
        channels.push("n1", update(UpdateType.DELETE))
        sim.run_until(1.0)
        return sent

    def test_latency_profile_order(self):
        assert self.drain_order(DEFAULT_PRIORITIES) == [
            UpdateType.DELETE, UpdateType.REFRESH, UpdateType.APPEND,
        ]

    def test_flash_crowd_profile_order(self):
        assert self.drain_order(FLASH_CROWD_PRIORITIES) == [
            UpdateType.APPEND, UpdateType.DELETE, UpdateType.REFRESH,
        ]


class TestConfigPlumbing:
    def test_profile_reaches_nodes(self):
        config = CupConfig(
            num_nodes=4, total_keys=1, priority_profile="flash-crowd"
        )
        net = CupNetwork(config)
        node = next(iter(net.nodes.values()))
        net.set_node_capacity(node.node_id, CapacityConfig(rate=1.0))
        assert node.channels._priorities is FLASH_CROWD_PRIORITIES

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            CupConfig(priority_profile="yolo").validate()
