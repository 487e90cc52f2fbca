"""A node holds only what differs between nodes.

Network-wide settings live once, in the :class:`NodeEnv` every node of a
network shares; outgoing update channels exist only while a capacity
limit is imposed; and a node that owns no key points at the one shared
empty authority index, ``NO_AUTHORITY``, which must stay empty through
every path that hands a node a key: replica events, churn handover,
checkpoints and node store round trips.
"""

import inspect
import pickle
from types import SimpleNamespace

import pytest
from helpers import MicroNet

from repro.core.cache import NO_ITEMS
from repro.core.channels import CapacityConfig
from repro.core.messages import ReplicaEvent, ReplicaMessage
from repro.core.node import CupNode
from repro.core.protocol import CupConfig, CupNetwork
from repro.experiments.config import SMALL
from repro.persistence.nodestore import NodeStore
from repro.replicas.authority import NO_AUTHORITY, AuthorityIndex
from repro.scenarios import SCENARIOS
from repro.scenarios.dsl import default_base_config, with_chaos
from repro.scenarios.runner import run_scenario


def clean_cell(num_nodes=256):
    return SMALL.config(
        seed=42, num_nodes=num_nodes, query_rate=SMALL.rate(100)
    )


def birth(key, replica=0):
    return ReplicaMessage(
        ReplicaEvent.BIRTH, key, f"{key}/r{replica}", f"addr://{key}", 100.0
    )


def assert_no_authority_is_empty():
    assert NO_AUTHORITY._entries is NO_ITEMS
    assert NO_AUTHORITY._sequences is NO_ITEMS
    assert not NO_ITEMS
    assert list(NO_AUTHORITY.keys()) == []


def assert_only_owners_hold_an_index(net):
    owners = {net.overlay.authority(key) for key in net.keys}
    private = {
        node_id for node_id, node in net.nodes.items()
        if node.authority_index is not NO_AUTHORITY
    }
    assert private == owners


@pytest.fixture(scope="module")
def clean_run():
    net = CupNetwork(clean_cell())
    net.run()
    return net


class TestOneEnvPerNetwork:
    def test_every_node_and_joiner_shares_the_network_env(self):
        net = CupNetwork(CupConfig(num_nodes=16, total_keys=4))
        assert all(node.env is net.env for node in net.nodes.values())
        assert net.join_node("late").env is net.env

    def test_a_node_is_its_id_and_its_env(self):
        assert list(inspect.signature(CupNode).parameters) == [
            "node_id", "env",
        ]
        assert len(CupNode.__slots__) == 8

    def test_invariant_probe_is_set_once_on_the_env(self):
        net = CupNetwork(CupConfig(num_nodes=16, total_keys=4))
        checker = net.attach_invariants(hazards={"churn"})
        assert net.env.invariant_probe is checker
        assert net.join_node("late").env.invariant_probe is checker


class TestChannelsOnlyUnderALimit:
    def test_clean_cell_nodes_hold_no_channels(self, clean_run):
        assert all(node.channels is None for node in clean_run.nodes.values())

    def test_set_node_capacity_gives_that_node_channels(self):
        net = CupNetwork(CupConfig(num_nodes=16, total_keys=4))
        net.set_node_capacity(3, CapacityConfig(fraction=0.5))
        assert [n for n, node in net.nodes.items() if node.channels] == [3]
        assert net.nodes[3].channels.capacity.fraction == 0.5
        net.set_node_capacity(3, CapacityConfig())
        assert net.nodes[3].channels is None

    def test_an_unlimited_initial_capacity_builds_none(self):
        assert MicroNet(capacity=CapacityConfig()).node(0).channels is None
        assert MicroNet(capacity=CapacityConfig(rate=2.0)).node(0).channels


class TestSharedEmptyAuthority:
    def test_only_owners_hold_a_private_index(self, clean_run):
        assert_only_owners_hold_an_index(clean_run)
        assert_no_authority_is_empty()

    def test_writes_to_it_raise(self):
        exported = AuthorityIndex()
        exported.apply_replica_message(birth("k"), 0.0)
        for write in (
            lambda: NO_AUTHORITY.apply_replica_message(birth("k"), 0.0),
            lambda: NO_AUTHORITY.absorb(exported.extract_keys(["k"])),
            lambda: NO_AUTHORITY.install_slice(
                {"entries": {}, "sequences": {("k", "k/r0"): 1}}),
        ):
            with pytest.raises(TypeError):
                write()
        assert_no_authority_is_empty()

    def test_it_pickles_as_itself(self):
        net = pickle.loads(pickle.dumps(MicroNet()))
        assert net.node(1).authority_index is NO_AUTHORITY
        net.seed_authority("k")
        assert net.authority.authority_index.owns("k")
        assert_no_authority_is_empty()

    def test_it_stays_empty_through_capacity_sag_with_chaos(self):
        result = run_scenario(
            with_chaos(SCENARIOS["capacity-sag"]), seed=42,
            base_config=default_base_config(),
        )
        assert result.ok, result.violations
        net = result.network
        assert_only_owners_hold_an_index(net)
        # Every sag was lifted, and with it the channels it built.
        assert all(node.channels is None for node in net.nodes.values())
        assert_no_authority_is_empty()

    def test_it_stays_empty_through_a_graceful_leave_and_a_join(self):
        net = CupNetwork(CupConfig(num_nodes=16, total_keys=8))
        net.run_until(60.0)
        held = {
            key: node.authority_index.entries(key)
            for node in net.nodes.values()
            for key in node.authority_index.keys()
        }
        owner = net.overlay.authority(next(iter(held)))
        net.leave_node(owner, graceful=True)
        net.join_node("late")
        for key, entries in held.items():
            index = net.nodes[net.overlay.authority(key)].authority_index
            assert index.entries(key) == entries
        assert_no_authority_is_empty()

    def test_it_stays_empty_through_a_node_store_round_trip(self, tmp_path):
        net = MicroNet()
        node = net.node(2)
        daemon = SimpleNamespace(
            node=node, node_id=node.node_id, members={node.node_id},
            config=SimpleNamespace(mode="cup"), clock=net.sim,
        )
        store = NodeStore(tmp_path)
        store.save(daemon)
        loaded = store.load().authority
        assert loaded is NO_AUTHORITY
        # What LiveNode._restore_state does, then a birth on the node.
        node.authority_index = loaded
        node.receive(birth("k"), None)
        assert node.authority_index.owns("k")
        assert_no_authority_is_empty()
        # The birth rides the log over a key-less base.
        store.dirty.add(("k", "k/r0"))
        store.save(daemon)
        replayed = NodeStore(tmp_path).load().authority
        assert replayed is not NO_AUTHORITY and replayed.owns("k")
        assert_no_authority_is_empty()
