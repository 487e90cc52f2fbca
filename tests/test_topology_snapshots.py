"""Topology snapshot cache + sweep-aware executor behaviour."""

import pytest

from repro.core.protocol import CupConfig, CupNetwork
from repro.experiments import executor, runcache, topology
from repro.experiments.executor import Cell
from repro.experiments.runner import clear_cache
from repro.scenarios import SCENARIOS


@pytest.fixture(autouse=True)
def _fresh_caches():
    saved = runcache.snapshot()
    runcache.configure(enabled=False)
    clear_cache()
    topology.clear()
    yield
    topology.clear()
    clear_cache()
    runcache.restore(saved)


def _config(**overrides):
    base = dict(
        num_nodes=32, total_keys=2, query_rate=2.0, seed=9,
        entry_lifetime=40.0, query_start=40.0, query_duration=80.0,
        drain=40.0,
    )
    base.update(overrides)
    return CupConfig(**base)


class TestSnapshotKey:
    def test_seed_irrelevant_for_deterministic_topologies(self):
        a = topology.snapshot_key(_config(seed=1))
        b = topology.snapshot_key(_config(seed=2))
        assert a == b  # perfect grid: seed does not shape the overlay

    def test_seed_participates_for_random_can(self):
        a = topology.snapshot_key(_config(num_nodes=33, seed=1))
        b = topology.snapshot_key(_config(num_nodes=33, seed=2))
        assert a != b

    def test_overlay_type_and_size_distinguish(self):
        keys = {
            topology.snapshot_key(_config()),
            topology.snapshot_key(_config(num_nodes=64)),
            topology.snapshot_key(_config(overlay_type="chord")),
            topology.snapshot_key(_config(overlay_type="pastry")),
        }
        assert len(keys) == 4


class TestLease:
    def test_lease_is_cached_and_bounded(self):
        config = _config()
        first = topology.lease(config)
        assert topology.lease(config) is first
        assert topology.stats == {"hits": 1, "misses": 1}
        for n in (8, 16, 64, 128, 256):
            topology.lease(_config(num_nodes=n))
        # The original snapshot was evicted by the LRU bound.
        assert topology.leased(config) is None

    def test_snapshot_run_matches_private_run(self):
        config = _config()
        private = CupNetwork(config).run()
        shared = CupNetwork(config, topology=topology.lease(config)).run()
        again = CupNetwork(config, topology=topology.lease(config)).run()
        assert private == shared == again

    def test_random_can_snapshot_matches_private_build(self):
        config = _config(num_nodes=33)
        private = CupNetwork(config).run()
        shared = CupNetwork(config, topology=topology.lease(config)).run()
        assert private == shared

    def test_snapshot_reports_zero_routing_build(self):
        config = _config()
        net = CupNetwork(config, topology=topology.lease(config))
        assert net.metrics.routing_build_seconds == 0.0
        assert net.metrics.routing_table_builds == 0

    def test_membership_changes_rejected_on_snapshot(self):
        config = _config()
        net = CupNetwork(config, topology=topology.lease(config))
        with pytest.raises(RuntimeError, match="shared topology snapshot"):
            net.join_node(999)
        with pytest.raises(RuntimeError, match="shared topology snapshot"):
            net.leave_node(0)
        with pytest.raises(RuntimeError, match="shared topology snapshot"):
            net.crash_node(0)
        # The guard fires before any mutation: the network is intact.
        assert len(net.nodes) == config.num_nodes

    def test_private_network_still_churns(self):
        net = CupNetwork(_config())
        net.join_node(999)
        net.leave_node(999)


class TestExecutorIntegration:
    def test_sweep_cells_share_one_snapshot(self):
        config = _config()
        cells = [
            Cell(f"rate-{rate}", config.variant(query_rate=rate))
            for rate in (1.0, 2.0, 3.0)
        ]
        executor.execute(cells, workers=1, use_cache=False)
        assert topology.stats["misses"] == 1
        assert topology.stats["hits"] == 2

    def test_churn_scenarios_build_privately(self):
        scenario = SCENARIOS["churn-storm"]
        cell = Cell("storm", _config(), scenario=scenario)
        executor.execute([cell], workers=1, use_cache=False)
        assert topology.stats == {"hits": 0, "misses": 0}

    def test_partition_scenario_leases(self):
        scenario = SCENARIOS["partition-heal"]
        assert not (scenario.hazards() & {"churn", "crash"})
        cell = Cell("split", _config(), scenario=scenario)
        executor.execute([cell], workers=1, use_cache=False)
        assert topology.stats["misses"] == 1

    def test_executor_results_unchanged_by_snapshot_reuse(self):
        config = _config()
        cells = [Cell("a", config), Cell("b", config.variant(seed=10))]
        via_executor = executor.execute(cells, workers=1, use_cache=False)
        assert via_executor["a"] == CupNetwork(config).run()
        assert via_executor["b"] == CupNetwork(config.variant(seed=10)).run()
