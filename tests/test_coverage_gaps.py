"""Targeted tests for remaining coverage gaps across modules."""

import pytest

from repro.core.cache import KeyState
from repro.core.policies import CutoffPolicy
from repro.overlay.can import CanOverlay
from repro.sim.engine import Simulator


class TestPolicyBaseDefaults:
    def test_default_new_state_is_none(self):
        class Minimal(CutoffPolicy):
            name = "minimal"

            def should_keep_receiving(self, state, distance):
                return True

        policy = Minimal()
        assert policy.new_state() is None
        policy.observe_update(KeyState("k"))  # default no-op
        assert policy.may_forward(999)
        assert "minimal" in repr(policy)


class TestCanMemoization:
    def test_key_point_is_memoized(self):
        overlay = CanOverlay.perfect_grid(4)
        first = overlay.key_point("k")
        assert overlay.key_point("k") is first

    def test_authority_cache_invalidated_by_churn(self):
        overlay = CanOverlay.perfect_grid(4)
        owner = overlay.authority("somekey")
        overlay.leave(owner)
        assert overlay.authority("somekey") != owner

    def test_perfect_grid_rejects_other_dims(self):
        with pytest.raises(ValueError):
            CanOverlay.perfect_grid(4, dims=3)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            CanOverlay(dims=0)

    def test_add_first_node_twice_rejected(self):
        overlay = CanOverlay()
        overlay.add_first_node("a")
        with pytest.raises(ValueError):
            overlay.add_first_node("b")


class TestCliRunAll:
    def test_run_all_tiny(self, capsys):
        from repro.cli import main

        status = main(["run", "all", "--scale", "tiny", "--seed", "7"])
        out = capsys.readouterr().out
        assert status == 0
        for artifact in ("Figure 3", "Figure 4", "Table 1", "Table 2",
                         "Table 3", "Figure 5", "Figure 6", "§3.1"):
            assert artifact in out, f"missing {artifact}"
        assert "FAIL" not in out


class TestSimulatorDrainGuarantees:
    def test_run_until_with_empty_heap_just_advances_clock(self):
        sim = Simulator()
        assert sim.run_until(100.0) == 0
        assert sim.now == 100.0

    def test_events_processed_persists_across_calls(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestOverlayKeyDistribution:
    def test_keys_spread_across_authorities(self):
        overlay = CanOverlay.perfect_grid(64)
        owners = {overlay.authority(f"key-{i}") for i in range(256)}
        # 256 uniform keys over 64 zones: expect wide coverage.
        assert len(owners) >= 55
