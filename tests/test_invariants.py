"""Tests for the runtime invariant checker.

Covers: clean verdicts on benign runs in every protocol mode, the
read-only guarantee (a checked run's summary is identical to an
unchecked one's), violation *detection* (each invariant is made to fire
by corrupting state the way a real bug would), hazard declaration and
relaxation, and the structural audits.
"""

import pytest

from repro.core.messages import UpdateMessage, UpdateType
from repro.core.protocol import CupConfig, CupNetwork
from repro.invariants import HAZARDS, InvariantViolationError


def tiny_config(**overrides):
    base = dict(
        num_nodes=16, total_keys=4, query_rate=3.0, seed=11,
        entry_lifetime=40.0, query_start=60.0, query_duration=180.0,
        drain=60.0,
    )
    base.update(overrides)
    return CupConfig(**base)


class TestCleanRuns:
    @pytest.mark.parametrize(
        "mode", ["cup", "standard", "standard-coalescing"]
    )
    def test_benign_run_has_no_violations(self, mode):
        net = CupNetwork(tiny_config(mode=mode))
        checker = net.attach_invariants(check_interval=20.0)
        net.run()
        assert checker.ok
        assert checker.audits_run > 1
        assert checker.updates_seen > 0

    @pytest.mark.parametrize("overlay", ["can", "chord", "pastry"])
    def test_benign_run_every_overlay(self, overlay):
        net = CupNetwork(tiny_config(overlay_type=overlay))
        checker = net.attach_invariants(check_interval=20.0)
        net.run()
        assert checker.ok

    def test_checker_is_read_only(self):
        """A checked run's metrics match an unchecked run's exactly."""
        config = tiny_config()
        checked_net = CupNetwork(config)
        checked_net.attach_invariants(check_interval=15.0)
        checked = checked_net.run()
        unchecked = CupNetwork(config).run()
        assert checked == unchecked

    def test_rate_limited_run_with_capacity_hazard(self):
        net = CupNetwork(
            tiny_config(capacity_rate=4.0, capacity_fraction=0.6)
        )
        checker = net.attach_invariants(
            hazards={"capacity"}, check_interval=20.0
        )
        net.run()
        assert checker.ok


class TestWiring:
    def test_double_attach_rejected(self):
        net = CupNetwork(tiny_config())
        net.attach_invariants()
        with pytest.raises(RuntimeError):
            net.attach_invariants()

    def test_unknown_hazard_rejected(self):
        net = CupNetwork(tiny_config())
        with pytest.raises(ValueError, match="unknown hazards"):
            net.attach_invariants(hazards={"gremlins"})

    def test_invalid_check_interval_rejected(self):
        net = CupNetwork(tiny_config())
        with pytest.raises(ValueError):
            net.attach_invariants(check_interval=0.0)

    def test_joiners_get_the_probe(self):
        net = CupNetwork(tiny_config())
        checker = net.attach_invariants(hazards={"churn"})
        node = net.join_node("late-joiner")
        assert node.env.invariant_probe is checker
        assert checker.membership_events == 1

    def test_hazard_constants_exported(self):
        assert {
            "churn", "crash", "partition", "capacity",
            "loss", "duplication", "reorder",
        } == set(HAZARDS)


class TestViolationDetection:
    """Each invariant must actually fire when its property is broken."""

    def run_network(self, until=150.0, **overrides):
        net = CupNetwork(tiny_config(**overrides))
        checker = net.attach_invariants()
        if until:
            net.attach_workload()
            net.workload.begin()
            net.run_until(until)
        return net, checker

    def test_version_regression_detected(self):
        from repro.core.entry import IndexEntry

        net, checker = self.run_network()
        # Take any applied watermark and replay an older sequence
        # through the probe — exactly what a broken apply_entry()
        # stale-guard would let through.
        (node_id, key, rid), seq = next(iter(checker._watermarks.items()))
        assert seq >= 1
        stale = IndexEntry(
            key=key, replica_id=rid, address="addr://stale",
            lifetime=10.0, timestamp=net.sim.now, sequence=0,
        )
        with pytest.raises(InvariantViolationError, match="monotonicity"):
            checker.entry_applied(node_id, key, stale)

    def test_duplicate_delivery_detected(self):
        net, checker = self.run_network()
        node_id = next(iter(net.nodes))
        update = UpdateMessage(
            "k00000", UpdateType.REFRESH, (), "r0", issued_at=90.0
        )
        checker.update_delivered(node_id, update, "someone")
        with pytest.raises(InvariantViolationError, match="no-duplication"):
            checker.update_delivered(node_id, update, "someone")

    def test_cost_balance_detects_counter_tampering(self):
        net, checker = self.run_network()
        net.metrics.query_hops += 7  # a double-counting bug
        with pytest.raises(InvariantViolationError, match="cost-balance"):
            checker.check_quiescent()

    def test_loss_detected_when_answer_goes_missing(self):
        net, checker = self.run_network()
        # Forge a lost answer: a waiter that was never served.
        node = next(iter(net.nodes.values()))
        state = node.cache.get_or_create("k00000")
        state.local_waiters += 1
        state.pending_first_update = True
        net.metrics.misses += 1
        net.metrics.first_time_misses += 1
        net.metrics.queries_posted += 1
        checker._posted += 1
        with pytest.raises(InvariantViolationError, match="no-loss"):
            checker.check_quiescent()

    def test_interest_bit_for_departed_node_detected(self):
        net, checker = self.run_network()
        node = next(iter(net.nodes.values()))
        state = node.cache.get_or_create("k00001")
        state.register_interest("ghost-node")
        with pytest.raises(
            InvariantViolationError, match="interest-consistency"
        ):
            checker.audit_network()

    def test_interest_bit_for_wrong_parent_detected(self):
        net, checker = self.run_network()
        key = "k00002"
        authority = net.overlay.authority(key)
        # A node that is NOT on some other node's upstream path claims
        # interest from it: pick any member whose next_hop differs.
        wrong = None
        for node_id in net.nodes:
            if node_id == authority:
                continue
            parent = net.overlay.next_hop(node_id, key)
            for holder in net.nodes:
                if holder not in (parent, node_id):
                    wrong = (holder, node_id)
                    break
            if wrong:
                break
        holder, child = wrong
        net.nodes[holder].cache.get_or_create(key).register_interest(child)
        with pytest.raises(
            InvariantViolationError, match="interest-consistency"
        ):
            checker.audit_network()

    def test_undeclared_churn_detected(self):
        net, checker = self.run_network(until=None)
        with pytest.raises(InvariantViolationError, match="hazard"):
            net.leave_node(next(iter(net.nodes)))

    def test_undeclared_join_detected(self):
        """Joins re-route keys too: undeclared ones are flagged at the
        join, not blamed on interest consistency at the next audit."""
        net, checker = self.run_network(until=None)
        with pytest.raises(InvariantViolationError, match="hazard"):
            net.join_node("stranger")

    def test_double_answer_detected(self):
        net, checker = self.run_network()
        net.metrics.answers_delivered += 1
        checker._answers += 1
        with pytest.raises(InvariantViolationError, match="exceeds"):
            checker.check_quiescent()

    def test_structural_cache_corruption_detected(self):
        net, checker = self.run_network()
        node = next(iter(net.nodes.values()))
        state = node.cache.get_or_create("k00003")
        state.local_waiters = -2
        with pytest.raises(InvariantViolationError, match="structural"):
            checker.audit_network()

    def test_collect_mode_accumulates_instead_of_raising(self):
        net = CupNetwork(tiny_config())
        checker = net.attach_invariants(raise_immediately=False)
        net.run_until(150.0)
        node = next(iter(net.nodes.values()))
        node.cache.get_or_create("k00001").register_interest("ghost")
        node.cache.get_or_create("k00002").local_waiters = -1
        checker.audit_network()
        assert not checker.ok
        invariants = {v.invariant for v in checker.violations}
        assert "interest-consistency" in invariants
        assert "structural" in invariants
        assert "ghost" in checker.report()


class TestHazardWindows:
    """Timed windows widen ``active_hazards()`` past the base set."""

    def make(self, **kwargs):
        net = CupNetwork(tiny_config())
        checker = net.attach_invariants(**kwargs)
        return net, checker

    def test_window_adds_hazard_then_expires_with_the_clock(self):
        net, checker = self.make()
        assert checker.active_hazards() == checker.hazards
        checker.open_hazard_window(["loss"], duration=10.0)
        assert "loss" in checker.active_hazards()
        assert checker.hazards == frozenset()  # base set untouched
        net.run_until(20.0)
        assert "loss" not in checker.active_hazards()

    def test_indefinite_window_stays_until_closed(self):
        net, checker = self.make()
        checker.open_hazard_window(["loss"])
        net.run_until(100.0)
        assert "loss" in checker.active_hazards()
        checker.close_hazard_window(["loss"])
        assert "loss" not in checker.active_hazards()

    def test_overlapping_windows_keep_the_later_expiry(self):
        net, checker = self.make()
        checker.open_hazard_window(["loss"], duration=50.0)
        checker.open_hazard_window(["loss"], duration=5.0)  # no shorten
        net.run_until(20.0)
        assert "loss" in checker.active_hazards()
        net.run_until(60.0)
        assert "loss" not in checker.active_hazards()

    def test_close_without_arguments_clears_every_window(self):
        _net, checker = self.make()
        checker.open_hazard_window(["loss", "reorder"])
        checker.close_hazard_window()
        assert checker.active_hazards() == checker.hazards

    def test_window_relaxes_churn_like_a_declared_hazard(self):
        net, checker = self.make()
        checker.open_hazard_window(["churn", "crash"])
        net.leave_node(next(iter(net.nodes)))  # tolerated: window open
        checker.close_hazard_window()
        with pytest.raises(InvariantViolationError, match="hazard"):
            net.leave_node(next(iter(net.nodes)))

    def test_unknown_or_negative_window_rejected(self):
        _net, checker = self.make()
        with pytest.raises(ValueError, match="unknown hazards"):
            checker.open_hazard_window(["gremlins"])
        with pytest.raises(ValueError):
            checker.open_hazard_window(["loss"], duration=-1.0)

    def test_report_names_open_windows(self):
        _net, checker = self.make()
        checker.open_hazard_window(["loss"], duration=30.0)
        assert "loss" in checker.report()


class TestRelaxation:
    def test_churn_relaxes_tree_and_sequence_checks(self):
        net = CupNetwork(tiny_config())
        checker = net.attach_invariants(hazards={"churn"}, check_interval=20.0)
        net.run_until(100.0)
        victims = [n for n in list(net.nodes) if n != 0][:3]
        for victim in victims:
            net.leave_node(victim, graceful=False)
        net.join_node("replacement")
        net.run()
        assert checker.ok
        assert checker.membership_events == 4

    def test_partition_relaxes_loss_freedom(self):
        net = CupNetwork(tiny_config())
        checker = net.attach_invariants(
            hazards={"partition"}, check_interval=20.0
        )
        members = sorted(net.nodes, key=str)
        islands = [members[::2], members[1::2]]
        rule = {}
        net.sim.schedule_at(
            80.0, lambda: rule.setdefault(
                "id", net.transport.partition(islands)
            )
        )
        net.sim.schedule_at(
            160.0, lambda: net.transport.remove_drop_rule(rule["id"])
        )
        net.run()
        assert checker.ok
        assert net.transport.blocked > 0
