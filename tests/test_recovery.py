"""Tests for the unreliable-transport recovery layer.

Unit-level: the :class:`RecoveryManager` state machine driven directly —
sequence stamping, gap detection, NACK retransmission, capped
exponential backoff, duplicate suppression, degradation to pull, and
membership pruning.  Integration-level: whole networks over a faulty
transport (the chaos built-ins), crash/recover membership, and the
quiescence convergence audit including its violation path.
"""

import pytest

from repro.core.messages import NackMessage, UpdateMessage, UpdateType
from repro.core.protocol import CupConfig, CupNetwork
from repro.core.recovery import RecoveryConfig, RecoveryManager
from repro.scenarios import SCENARIOS, with_chaos
from repro.scenarios.runner import run_scenario
from repro.sim.engine import Simulator
from repro.sim.network import Transport


class Recorder:
    def __init__(self):
        self.received = []

    def receive(self, message, sender):
        self.received.append((message, sender))


class FakeMetrics:
    """Just the recovery counters the manager increments."""

    def __init__(self):
        self.gaps_detected = 0
        self.nacks_sent = 0
        self.recovery_retries = 0
        self.recovered_updates = 0
        self.degraded_reads = 0
        self.degraded_repromotions = 0
        self.duplicates_suppressed = 0


def _stale_copy(entry):
    """A version-rolled-back duplicate of a cached index entry."""
    from repro.core.entry import IndexEntry

    return IndexEntry(
        key=entry.key, replica_id=entry.replica_id, address=entry.address,
        lifetime=entry.lifetime, timestamp=entry.timestamp,
        sequence=entry.sequence - 1,
    )


def make_update(key="k00000", seq=None):
    update = UpdateMessage(key, UpdateType.REFRESH, (), "r0", issued_at=0.0)
    update.hop_seq = seq
    return update


def make_manager(config=None, node_id="child"):
    sim = Simulator()
    net = Transport(sim, default_delay=0.1)
    inboxes = {"parent": Recorder(), "child": Recorder()}
    for name, inbox in inboxes.items():
        net.register(name, inbox)
    metrics = FakeMetrics()
    pulls = []
    manager = RecoveryManager(
        sim, net, node_id, metrics, config or RecoveryConfig(),
        request_pull=pulls.append,
    )
    return sim, net, inboxes, manager, metrics, pulls


class TestRecoveryConfig:
    def test_defaults_valid(self):
        config = RecoveryConfig()
        assert config.max_retries == 4
        assert config.buffer_size == 64

    @pytest.mark.parametrize("bad", [
        dict(max_retries=-1),
        dict(base_timeout=0.0),
        dict(backoff=0.5),
        dict(max_timeout=0.1, base_timeout=0.5),
        dict(buffer_size=0),
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            RecoveryConfig(**bad)


class TestStamping:
    def test_sequences_monotonic_per_link(self):
        _, _, _, manager, _, _ = make_manager(node_id="parent")
        for expected in (1, 2, 3):
            update = make_update()
            manager.stamp("child", update)
            assert update.hop_seq == expected

    def test_links_independent(self):
        _, _, _, manager, _, _ = make_manager(node_id="parent")
        a, b = make_update("ka"), make_update("kb")
        manager.stamp("child", a)
        manager.stamp("child", b)
        assert a.hop_seq == 1 and b.hop_seq == 1
        other = make_update("ka")
        manager.stamp("other-child", other)
        assert other.hop_seq == 1

    def test_nack_retransmits_buffered_forks(self):
        sim, _, inboxes, manager, _, _ = make_manager(node_id="parent")
        originals = [make_update() for _ in range(3)]
        for update in originals:
            manager.stamp("child", update)
        manager.handle_nack(NackMessage("k00000", (2, 3)), "child")
        sim.run()
        resent = [m for m, _ in inboxes["child"].received]
        assert sorted(m.hop_seq for m in resent) == [2, 3]
        # Retransmissions are forks, never the buffered envelope itself.
        assert all(m not in originals for m in resent)

    def test_buffer_is_bounded_and_evicts_fifo(self):
        config = RecoveryConfig(buffer_size=4)
        sim, _, inboxes, manager, _, _ = make_manager(config, "parent")
        for _ in range(10):
            manager.stamp("child", make_update())
        # Seqs 1..6 were evicted; only 7..10 remain resendable.
        manager.handle_nack(NackMessage("k00000", (1, 2, 9)), "child")
        sim.run()
        assert [m.hop_seq for m, _ in inboxes["child"].received] == [9]

    def test_buffer_holds_exactly_the_last_buffer_size_in_order(self):
        sim, _, inboxes, manager, _, _ = make_manager(node_id="parent")
        size = manager.config.buffer_size
        for _ in range(size + 3):
            manager.stamp("child", make_update())
        (buffer,) = manager._sent.values()
        assert [u.hop_seq for u in buffer] == list(range(4, size + 4))
        manager.handle_nack(
            NackMessage("k00000", (3, 4, size + 3)), "child")
        sim.run()
        assert [m.hop_seq for m, _ in inboxes["child"].received] == [
            4, size + 3]

    def test_nack_for_unknown_link_is_ignored(self):
        sim, _, inboxes, manager, _, _ = make_manager(node_id="parent")
        manager.handle_nack(NackMessage("k00000", (1,)), "child")
        sim.run()
        assert inboxes["child"].received == []


class TestGapDetection:
    def test_in_order_arrivals_apply_and_advance_watermark(self):
        _, _, _, manager, metrics, _ = make_manager()
        for seq in (1, 2, 3):
            assert manager.note_received("parent", "k00000", seq)
            assert manager.watermark("parent", "k00000") == seq
        assert metrics.gaps_detected == 0
        assert manager.open_gaps() == {}

    def test_jump_opens_gap_and_nacks_upstream(self):
        sim, _, inboxes, manager, metrics, _ = make_manager()
        assert manager.note_received("parent", "k00000", 1)
        assert manager.note_received("parent", "k00000", 4)
        assert metrics.gaps_detected == 2
        assert manager.open_gaps() == {("parent", "k00000"): (2, 3)}
        sim.run_until(0.2)  # deliver the NACK, don't reach the retry timer
        nacks = [m for m, _ in inboxes["parent"].received]
        assert len(nacks) == 1
        assert nacks[0].kind == "nack"
        assert nacks[0].key == "k00000"
        assert nacks[0].missing == (2, 3)
        assert metrics.nacks_sent == 1

    def test_late_arrivals_fill_gap_and_close_it(self):
        _, _, _, manager, metrics, _ = make_manager()
        manager.note_received("parent", "k00000", 1)
        manager.note_received("parent", "k00000", 4)
        assert manager.note_received("parent", "k00000", 2)
        assert manager.note_received("parent", "k00000", 3)
        assert metrics.recovered_updates == 2
        assert manager.open_gaps() == {}
        # The watermark never regressed while the gap filled.
        assert manager.watermark("parent", "k00000") == 4

    def test_duplicates_suppressed(self):
        _, _, _, manager, metrics, _ = make_manager()
        manager.note_received("parent", "k00000", 1)
        assert not manager.note_received("parent", "k00000", 1)
        assert metrics.duplicates_suppressed == 1
        # A gap member arriving twice: first fills, second suppresses.
        manager.note_received("parent", "k00000", 3)
        assert manager.note_received("parent", "k00000", 2)
        assert not manager.note_received("parent", "k00000", 2)
        assert metrics.duplicates_suppressed == 2

    def test_growing_gap_counts_only_new_members(self):
        _, _, _, manager, metrics, _ = make_manager()
        manager.note_received("parent", "k00000", 2)  # gap {1}
        manager.note_received("parent", "k00000", 4)  # gap {1, 3}
        assert metrics.gaps_detected == 2
        assert manager.open_gaps() == {("parent", "k00000"): (1, 3)}


class TestRetryAndDegradation:
    def test_backoff_schedule_then_degrade(self):
        config = RecoveryConfig(max_retries=2, base_timeout=0.5, backoff=2.0)
        sim, _, inboxes, manager, metrics, pulls = make_manager(config)
        manager.note_received("parent", "k00000", 2)  # gap {1}, never filled
        sim.run()
        # Timer fires at 0.5, 0.5+1.0=1.5, 1.5+2.0=3.5 (degrade).
        assert sim.now == pytest.approx(3.5)
        assert metrics.recovery_retries == 2
        assert metrics.nacks_sent == 3  # initial + 2 retries
        assert metrics.degraded_reads == 1
        assert manager.degraded_keys == {"k00000"}
        assert pulls == ["k00000"]
        assert manager.open_gaps() == {}

    def test_timeout_capped_at_max(self):
        config = RecoveryConfig(
            max_retries=1, base_timeout=1.0, backoff=10.0, max_timeout=2.0
        )
        sim, _, _, manager, _, pulls = make_manager(config)
        manager.note_received("parent", "k00000", 2)
        sim.run()
        # 1.0 (first retry) + min(10.0, 2.0) = 3.0 degrade, not 11.0.
        assert sim.now < 4.0
        assert pulls == ["k00000"]

    def test_fill_before_timeout_cancels_timer(self):
        sim, _, _, manager, metrics, pulls = make_manager()
        manager.note_received("parent", "k00000", 2)
        manager.note_received("parent", "k00000", 1)
        sim.run()
        assert metrics.recovery_retries == 0
        assert pulls == []
        assert sim.now < 1.0  # nothing left but the one NACK delivery

    def test_zero_retries_degrades_on_first_timeout(self):
        config = RecoveryConfig(max_retries=0)
        sim, _, _, manager, metrics, pulls = make_manager(config)
        manager.note_received("parent", "k00000", 2)
        sim.run()
        assert metrics.recovery_retries == 0
        assert pulls == ["k00000"]

    def test_corpse_sends_no_nacks(self):
        sim, net, inboxes, manager, metrics, _ = make_manager()
        net.unregister("child")  # the owner itself went dark
        manager.note_received("parent", "k00000", 3)
        sim.run_until(0.5)
        assert inboxes["parent"].received == []
        assert metrics.nacks_sent == 0

    def test_nack_skipped_when_sender_departed(self):
        sim, net, inboxes, manager, metrics, _ = make_manager()
        net.unregister("parent")
        manager.note_received("parent", "k00000", 3)
        sim.run_until(0.4)
        assert metrics.nacks_sent == 0


class TestRepromotion:
    """Degraded marks lift when the recovery pull is finally answered."""

    def _degraded_manager(self):
        config = RecoveryConfig(max_retries=0, base_timeout=0.1)
        sim, _, _, manager, metrics, pulls = make_manager(config)
        manager.note_received("parent", "k00000", 2)  # gap, never filled
        sim.run()
        assert manager.degraded_keys == {"k00000"}
        assert pulls == ["k00000"]
        return manager, metrics

    def test_note_refreshed_clears_the_mark_and_counts(self):
        manager, metrics = self._degraded_manager()
        manager.note_refreshed("k00000")
        assert manager.degraded_keys == set()
        assert metrics.degraded_repromotions == 1

    def test_note_refreshed_is_idempotent(self):
        manager, metrics = self._degraded_manager()
        manager.note_refreshed("k00000")
        manager.note_refreshed("k00000")
        assert metrics.degraded_repromotions == 1

    def test_note_refreshed_on_never_degraded_key_is_a_noop(self):
        _, _, _, manager, metrics, _ = make_manager()
        manager.note_refreshed("other")
        assert metrics.degraded_repromotions == 0
        assert manager.degraded_keys == set()

    def test_key_can_degrade_again_after_repromotion(self):
        config = RecoveryConfig(max_retries=0, base_timeout=0.1)
        sim, _, _, manager, metrics, pulls = make_manager(config)
        manager.note_received("parent", "k00000", 2)
        sim.run()
        manager.note_refreshed("k00000")
        manager.note_received("parent", "k00000", 5)  # fresh gap
        sim.run()
        assert manager.degraded_keys == {"k00000"}
        assert metrics.degraded_reads == 2
        assert metrics.degraded_repromotions == 1

    def test_pull_response_repromotes_through_the_node(self):
        """End to end over a lossy mesh: keys degraded mid-run lift
        their mark once maintenance traffic re-delivers fresh state, and
        the run's report carries the re-promotion count."""
        scenario = with_chaos(
            SCENARIOS["flash-crowd"], loss=0.3, duplicate=0.1
        )
        result = run_scenario(
            scenario, seed=7, raise_on_violation=False, convergence=True
        )
        report = result.network.metrics.recovery_report()
        assert "degraded_repromotions" in report
        assert report["degraded_repromotions"] >= 0
        degraded_now = set()
        for node in result.network.nodes.values():
            if node.recovery is not None:
                degraded_now |= node.recovery.degraded_keys
        # Every currently-marked key must still be justified: marks are
        # no longer append-only, so the union reflects only keys whose
        # pulls have not yet been answered.
        assert report["degraded_reads"] >= len(degraded_now)


class TestPrunePeers:
    def test_gap_toward_departed_peer_degrades_immediately(self):
        sim, _, _, manager, metrics, pulls = make_manager()
        manager.note_received("parent", "k00000", 3)
        manager.prune_peers(alive=["child"])
        assert pulls == ["k00000"]
        assert metrics.degraded_reads == 1
        assert manager.open_gaps() == {}
        assert manager.watermark("parent", "k00000") == 0  # state dropped
        sim.run()
        assert metrics.recovery_retries == 0  # timer went with the gap

    def test_state_toward_alive_peers_survives(self):
        _, _, _, manager, _, pulls = make_manager()
        manager.note_received("parent", "k00000", 3)
        manager.prune_peers(alive=["parent", "child"])
        assert pulls == []
        assert manager.open_gaps() == {("parent", "k00000"): (1, 2)}
        assert manager.watermark("parent", "k00000") == 3


class TestNodeWiring:
    def tiny(self, **overrides):
        base = dict(
            num_nodes=16, total_keys=4, query_rate=3.0, seed=11,
            entry_lifetime=40.0, query_start=60.0, query_duration=120.0,
            drain=60.0,
        )
        base.update(overrides)
        return CupConfig(**base)

    def test_reliable_default_has_no_recovery_manager(self):
        net = CupNetwork(self.tiny())
        assert all(node.recovery is None for node in net.nodes.values())

    def test_unreliable_config_wires_recovery_everywhere(self):
        net = CupNetwork(self.tiny(reliable_transport=False))
        assert all(
            node.recovery is not None for node in net.nodes.values()
        )
        # Stamping happens on the per-child channel path, so a recovery
        # run never hands a fan-out to the transport.
        fanouts = []
        net.transport.send_fanout = lambda *args: fanouts.append(args)
        summary = net.run()
        assert summary.total_cost > 0 and not fanouts

    def test_standard_mode_never_gets_recovery(self):
        net = CupNetwork(
            self.tiny(reliable_transport=False, mode="standard")
        )
        assert all(node.recovery is None for node in net.nodes.values())


class TestCrashRecover:
    def tiny(self):
        return CupConfig(
            num_nodes=16, total_keys=4, query_rate=3.0, seed=11,
            entry_lifetime=40.0, query_start=60.0, query_duration=120.0,
            drain=60.0,
        )

    def test_crash_then_recover_restores_membership(self):
        net = CupNetwork(self.tiny())
        checker = net.attach_invariants(hazards={"crash"})
        net.run_until(80.0)
        victim = next(iter(net.nodes))
        net.crash_node(victim)
        assert not net.transport.is_registered(victim)
        assert victim not in net._member_list
        net.run_until(90.0)
        net.recover_node(victim)
        assert net.transport.is_registered(victim)
        assert victim in net._member_list
        assert victim not in net._crashed
        net.run()
        assert checker.ok

    def test_recover_requires_a_crashed_node(self):
        net = CupNetwork(self.tiny())
        net.attach_invariants(hazards={"crash"})
        with pytest.raises(ValueError, match="not crashed"):
            net.recover_node(next(iter(net.nodes)))

    def test_recover_unknown_node_rejected(self):
        net = CupNetwork(self.tiny())
        with pytest.raises(ValueError, match="not a member"):
            net.recover_node("ghost")


class TestEndToEnd:
    def test_lossy_mesh_recovers_and_converges(self):
        result = run_scenario(
            SCENARIOS["lossy-mesh"], seed=7, convergence=True
        )
        assert result.ok
        transport = result.network.transport
        assert transport.lost > 0
        report = result.network.metrics.recovery_report()
        assert report["gaps_detected"] > 0
        assert report["recovered_updates"] > 0
        assert "transport faults:" in result.report()
        assert "recovery:" in result.report()

    def test_chaos_monkey_survives_everything(self):
        result = run_scenario(
            SCENARIOS["chaos-monkey"], seed=7, convergence=True
        )
        assert result.ok
        transport = result.network.transport
        assert transport.lost > 0
        assert transport.duplicated > 0
        assert not result.network._crashed  # every victim recovered

    def test_with_chaos_wraps_any_scenario(self):
        chaotic = with_chaos(
            SCENARIOS["steady-state"], loss=0.2, duplicate=0.1, jitter=0.1
        )
        assert chaotic.name == "steady-state+chaos"
        assert {"loss", "duplication", "reorder"} <= chaotic.hazards()
        assert ("reliable_transport", False) in chaotic.overrides
        result = run_scenario(chaotic, seed=7, convergence=True)
        assert result.ok
        assert result.network.transport.lost > 0

    def test_with_chaos_requires_a_fault(self):
        with pytest.raises(ValueError, match="at least one"):
            with_chaos(SCENARIOS["steady-state"], 0.0, 0.0, 0.0)


class TestConvergenceAudit:
    def tiny(self):
        return CupConfig(
            num_nodes=16, total_keys=4, query_rate=3.0, seed=11,
            entry_lifetime=40.0, query_start=60.0, query_duration=120.0,
            drain=60.0,
        )

    def test_invalid_slack_rejected(self):
        net = CupNetwork(self.tiny())
        checker = net.attach_invariants()
        with pytest.raises(ValueError, match="slack"):
            checker.audit_convergence(slack=-1.0)

    def test_clean_run_converges(self):
        net = CupNetwork(self.tiny())
        checker = net.attach_invariants()
        net.run()
        checker.audit_convergence(slack=0.0)
        assert checker.ok

    def test_silent_staleness_detected(self):
        net = CupNetwork(self.tiny())
        checker = net.attach_invariants(raise_immediately=False)
        net.run()
        # Roll back one subscribed node's cached version — the silent
        # staleness a broken recovery layer would leave behind.
        corrupted = False
        for node_id, node in net.nodes.items():
            for state in node.cache:
                key = state.key
                authority_id = net.overlay.authority(key)
                if authority_id == node_id:
                    continue
                settled = net.nodes[authority_id].authority_index \
                    .fresh_entries(key, net.sim.now)
                if not settled:
                    continue
                if not checker._subscribed(node_id, key, authority_id):
                    continue
                held = state.entries.get(settled[0].replica_id)
                if held is None:
                    continue
                # A distinct stale copy: cache entries can alias the
                # authority's own objects, and mutating a shared entry
                # would "age" both sides of the comparison at once.
                state.entries[held.replica_id] = _stale_copy(held)
                corrupted = True
                break
            if corrupted:
                break
        assert corrupted, "no subscribed cached entry found to corrupt"
        checker.audit_convergence(slack=0.0)
        assert not checker.ok
        assert any(
            v.invariant == "convergence" for v in checker.violations
        )

    def test_degraded_key_is_excused(self):
        net = CupNetwork(self.tiny())
        checker = net.attach_invariants(raise_immediately=False)
        net.run()
        # Same corruption as above, but the node declared the key
        # degraded — the audit must excuse it.
        for node_id, node in net.nodes.items():
            for state in node.cache:
                key = state.key
                authority_id = net.overlay.authority(key)
                if authority_id == node_id:
                    continue
                settled = net.nodes[authority_id].authority_index \
                    .fresh_entries(key, net.sim.now)
                if not settled:
                    continue
                if not checker._subscribed(node_id, key, authority_id):
                    continue
                held = state.entries.get(settled[0].replica_id)
                if held is None:
                    continue
                state.entries[held.replica_id] = _stale_copy(held)
                node.recovery = RecoveryManager(
                    net.sim, net.transport, node_id, None,
                    RecoveryConfig(), request_pull=lambda key: None,
                )
                node.recovery.degraded_keys.add(key)
                checker.audit_convergence(slack=0.0)
                assert checker.ok
                return
        pytest.fail("no subscribed cached entry found to corrupt")

    def test_runner_requires_invariants_for_convergence(self):
        with pytest.raises(ValueError, match="invariants"):
            run_scenario(
                SCENARIOS["steady-state"], invariants=False,
                convergence=True,
            )
