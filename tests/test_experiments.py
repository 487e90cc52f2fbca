"""Tests for the experiment harnesses at tiny scale.

Each harness must (a) run, (b) produce the paper's table structure, and
(c) satisfy its qualitative shape expectations.
"""

import pytest

from repro.experiments.base import (
    monotone_nondecreasing,
    monotone_nonincreasing,
)
from repro.experiments.capacity import (
    monotone_nonincreasing_rev,
    run_capacity,
    run_with_faults,
)
from repro.experiments.config import TINY, resolve_scale
from repro.experiments.cutoff_policies import run_cutoff_policies
from repro.experiments.network_size import run_network_size
from repro.experiments.push_level import default_levels, run_push_level
from repro.experiments.replicas_sweep import run_replicas_sweep
from repro.experiments.runner import clear_cache, run_config, run_pair


class TestScales:
    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale().name == "small"

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert resolve_scale().name == "paper"

    def test_resolve_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert resolve_scale("tiny").name == "tiny"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            resolve_scale("galactic")

    def test_rate_mapping_preserves_density(self):
        # density = rate * lifetime / n must match the paper's.
        paper_density = 1.0 * 300.0 / 1024
        tiny_density = TINY.rate(1.0) * TINY.entry_lifetime / TINY.num_nodes
        assert tiny_density == pytest.approx(paper_density)

    def test_rates_capped(self):
        assert TINY.rates([1.0, 10.0, 1000.0]) == [
            TINY.rate(1.0), TINY.rate(10.0)
        ]

    def test_config_carries_preset_fields(self):
        config = TINY.config(seed=1)
        assert config.num_nodes == TINY.num_nodes
        assert config.entry_lifetime == TINY.entry_lifetime
        assert config.total_keys == 1


class TestRunnerCache:
    def test_cache_returns_same_summary(self):
        clear_cache()
        config = TINY.config(seed=2, query_rate=0.5)
        first = run_config(config)
        second = run_config(config)
        assert first is second

    def test_run_pair_shares_workload(self):
        cup, std = run_pair(TINY.config(seed=2, query_rate=0.5))
        assert cup.queries_posted == std.queries_posted

    def test_cache_bypass(self):
        clear_cache()
        config = TINY.config(seed=2, query_rate=0.5)
        first = run_config(config)
        fresh = run_config(config, use_cache=False)
        assert first == fresh


class TestMonotoneHelpers:
    def test_nonincreasing(self):
        assert monotone_nonincreasing([5.0, 4.0, 4.1, 3.0])
        assert not monotone_nonincreasing([5.0, 9.0])

    def test_nondecreasing(self):
        assert monotone_nondecreasing([1.0, 2.0, 1.95, 3.0])
        assert not monotone_nondecreasing([5.0, 2.0])

    def test_capacity_rev_helper(self):
        assert monotone_nonincreasing_rev([10, 8, 8, 3])
        assert not monotone_nonincreasing_rev([3, 10])


class TestPushLevelHarness:
    def test_default_levels_reach_diameter(self):
        levels = default_levels(64)  # 8x8 grid -> diameter 8
        assert levels[0] == 0
        assert levels[-1] == 8
        assert levels == sorted(set(levels))

    def test_fig3_runs_and_holds(self):
        result = run_push_level(TINY, paper_rates=(1.0,), seed=7)
        assert result.all_expectations_hold(), result.report()
        table = result.format_table()
        assert "std caching" in table
        assert "push level" in table

    def test_optimal_level_lookup(self):
        result = run_push_level(TINY, paper_rates=(1.0,), seed=7)
        best = result.optimal_total(1.0)
        assert best == min(result.series[1.0]["total"])
        assert result.optimal_level(1.0) in result.levels


class TestCutoffHarness:
    def test_table1_runs_and_holds(self):
        result = run_cutoff_policies(TINY, paper_rates=(1.0, 10.0), seed=7)
        assert result.all_expectations_hold(), result.report()
        table = result.format_table()
        assert "second-chance" in table
        assert "standard caching" in table
        assert "optimal push level" in table

    def test_normalized_column(self):
        result = run_cutoff_policies(TINY, paper_rates=(10.0,), seed=7)
        assert result.normalized("standard caching", 10.0) == 1.0


class TestNetworkSizeHarness:
    def test_table2_runs_and_holds(self):
        result = run_network_size(
            TINY, exponents=(3, 4, 5, 6), high_rate=10.0, seed=7
        )
        assert result.all_expectations_hold(), result.report()
        assert result.sizes == [8, 16, 32, 64]
        assert "CUP / STD miss cost" in result.format_table()

    def test_high_rate_point_present(self):
        result = run_network_size(
            TINY, exponents=(3, 4), high_rate=10.0, seed=7
        )
        assert result.high_rate_point is not None
        assert "High-rate point" in result.format_table()


class TestReplicasHarness:
    def test_table3_runs_and_holds(self):
        result = run_replicas_sweep(
            TINY, replica_counts=(1, 2, 5, 20), seed=7
        )
        assert result.all_expectations_hold(), result.report()
        assert "Standard caching total cost" in result.format_table()


class TestJustificationHarness:
    def test_runs_and_holds(self):
        from repro.experiments.justification import run_justification

        result = run_justification(
            TINY, paper_rates=(0.1, 1.0, 10.0), seed=7
        )
        assert result.all_expectations_hold(), result.report()
        table = result.format_table()
        assert "justified fraction" in table
        assert "saved/overhead" in table


class TestCapacityHarness:
    def test_fig5_runs_and_holds(self):
        result = run_capacity(
            TINY, paper_rate=1.0, capacities=(0.0, 0.5, 1.0), seed=7
        )
        assert result.all_expectations_hold(), result.report()
        assert "up-and-down" in result.format_table()

    def test_fault_configuration_validated(self):
        with pytest.raises(ValueError):
            run_with_faults(TINY.config(seed=1), "sideways", reduced=0.5)
