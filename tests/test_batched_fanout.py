"""Transport fan-out ≡ per-child channel path.

A node at full capacity over a reliable transport hands its whole
fan-out to ``transport.send_fanout`` (one shared payload, k envelopes);
anything that can suppress, queue or stamp goes child by child through
``channels.push``.  Which one runs is decided from node state, not by an
option, so the referee forces the per-child path from outside: while
:func:`per_child_path` is active every ``CapacityConfig`` reports a
constraint, and ``channels.unlimited`` is False on every node.  The two
must be *observably identical*: same ``MetricsSummary``, same
invariant-checker verdicts, same per-node cache state, same transport
totals, and the same ``events_processed``.

Covered deterministically for every built-in scenario — churn,
partitions, flash crowds, capacity faults and the perfect storm all
composed in — and fuzzed by hypothesis over configs that exercise the
rate pump and fractional capacity (where the per-child path is the only
legal one) alongside full-capacity fan-out.
"""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channels import CapacityConfig
from repro.core.protocol import CupConfig, CupNetwork
from repro.scenarios import SCENARIOS
from repro.scenarios.dsl import default_base_config
from repro.scenarios.runner import run_scenario


def per_child_path(active: bool = True):
    """While active, no node takes the transport fan-out path."""
    if not active:
        return nullcontext()
    return mock.patch.object(CapacityConfig, "unlimited", lambda self: False)


def _node_cache_state(net: CupNetwork) -> dict:
    """Canonical per-node cache picture for equality comparison."""
    picture = {}
    for node_id, node in net.nodes.items():
        states = {}
        for state in node.cache:
            states[state.key] = (
                tuple(sorted(
                    (rid, e.sequence, e.timestamp, e.lifetime, e.address)
                    for rid, e in state.entries.items()
                )),
                frozenset(state.interest),
                frozenset(state.waiting),
                state.local_waiters,
                state.popularity,
                state.pending_first_update,
                state.designated_replica,
                state.clear_bit_sent,
            )
        picture[node_id] = states
    return picture


def _transport_totals(net: CupNetwork) -> tuple:
    t = net.transport
    return (t.sent, t.sent_direct, t.delivered, t.dropped, t.blocked)


def _run_config_both_paths(config: CupConfig):
    batched = CupNetwork(config)
    batched_summary = batched.run()
    with per_child_path():
        reference = CupNetwork(config)
        reference_summary = reference.run()
    assert not any(n.channels.unlimited for n in reference.nodes.values())
    return (batched, batched_summary), (reference, reference_summary)


def _assert_equivalent(batched_pair, reference_pair):
    (batched_net, batched_summary) = batched_pair
    (reference_net, reference_summary) = reference_pair
    assert batched_summary == reference_summary
    assert _transport_totals(batched_net) == _transport_totals(reference_net)
    assert (
        batched_net.sim.events_processed
        == reference_net.sim.events_processed
    )
    assert _node_cache_state(batched_net) == _node_cache_state(reference_net)


BASE = CupConfig(
    num_nodes=64, total_keys=4, query_rate=4.0, seed=11,
    entry_lifetime=60.0, query_start=60.0, query_duration=240.0, drain=60.0,
    gc_interval=60.0,
)


class TestDeterministicEquivalence:
    def test_plain_cup_run(self):
        _assert_equivalent(*_run_config_both_paths(BASE))

    def test_multi_replica_zipf(self):
        config = BASE.variant(
            replicas_per_key=3, key_distribution="zipf", seed=5
        )
        _assert_equivalent(*_run_config_both_paths(config))

    def test_rate_limited_channels(self):
        # The pump path is per-child either way; both must still agree.
        config = BASE.variant(capacity_rate=5.0)
        _assert_equivalent(*_run_config_both_paths(config))

    def test_fractional_capacity(self):
        config = BASE.variant(capacity_fraction=0.5)
        _assert_equivalent(*_run_config_both_paths(config))

    def test_push_level_gate(self):
        # A gating policy bypasses the inlined no-gate fast path.
        config = BASE.variant(policy="push-level:3")
        _assert_equivalent(*_run_config_both_paths(config))

    def test_standard_caching_baseline(self):
        config = BASE.variant(mode="standard")
        _assert_equivalent(*_run_config_both_paths(config))

    def test_recovery_layer_over_a_fault_free_transport(self):
        # Recovery forces the per-child path by itself (hop_seq stamping
        # happens at transmit time); with nothing lost it must not show.
        default = CupNetwork(BASE)
        stamped = CupNetwork(BASE.variant(reliable_transport=False))
        _assert_equivalent(
            (default, default.run()), (stamped, stamped.run())
        )

    @pytest.mark.parametrize("overlay_type", ["chord", "pastry"])
    def test_other_overlays(self, overlay_type):
        config = BASE.variant(overlay_type=overlay_type, num_nodes=48)
        _assert_equivalent(*_run_config_both_paths(config))


class TestScenarioEquivalence:
    """Batched ≡ per-child under every built-in adversarial scenario.

    Churn and partitions exercise the paths batching must respect:
    envelopes crossing a partition are dropped per child by the rule
    layer, and deliveries to departed nodes are dropped at delivery
    time whether grouped or not.
    """

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_builtin_scenario(self, name):
        scenario = SCENARIOS[name]
        results = {}
        for batched in (True, False):
            with per_child_path(not batched):
                result = run_scenario(
                    scenario,
                    seed=42,
                    invariants=True,
                    raise_on_violation=False,
                    base_config=default_base_config(),
                )
            assert result.ok, (name, batched, result.violations)
            results[batched] = result
        assert results[True].summary == results[False].summary
        assert (
            results[True].checker.updates_seen
            == results[False].checker.updates_seen
        )


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    num_nodes=st.sampled_from([16, 32, 64]),
    total_keys=st.integers(min_value=1, max_value=4),
    replicas=st.integers(min_value=1, max_value=2),
    capacity=st.sampled_from([
        (1.0, None), (0.6, None), (1.0, 8.0), (0.8, 4.0),
    ]),
    mode=st.sampled_from(["cup", "standard-coalescing"]),
)
@settings(max_examples=12, deadline=None)
def test_batched_equals_reference_fuzz(
    seed, num_nodes, total_keys, replicas, capacity, mode
):
    fraction, rate = capacity
    config = CupConfig(
        num_nodes=num_nodes,
        total_keys=total_keys,
        replicas_per_key=replicas,
        capacity_fraction=fraction,
        capacity_rate=rate,
        mode=mode,
        query_rate=3.0,
        seed=seed,
        entry_lifetime=40.0,
        query_start=40.0,
        query_duration=120.0,
        drain=40.0,
        gc_interval=40.0,
    )
    _assert_equivalent(*_run_config_both_paths(config))


class TestFaultedFanoutEquivalence:
    """Per-recipient fault evaluation is identical on both fan-out paths.

    With a ``LinkFaults`` rule installed the transport fan-out makes one
    independent loss/duplicate/jitter draw per child — the same draws,
    in the same stream order, as the per-child reference path.  A single
    whole-batch decision (or a different draw order) would diverge
    immediately: the seeded fault stream is consumed once per recipient.
    """

    def _faulted_run(self, batched: bool):
        with per_child_path(not batched):
            return self._run_with_faults()

    def _run_with_faults(self):
        from repro.sim.network import LinkFaults

        config = BASE.variant(seed=23)
        net = CupNetwork(config)
        handle = {}

        def install():
            spec = LinkFaults(
                net.streams.get("link-faults"),
                loss=0.15, duplicate=0.1, jitter=0.05,
            )
            handle["id"] = net.transport.add_link_faults(spec)

        net.sim.schedule_at(config.query_start, install)
        net.sim.schedule_at(
            config.query_start + 120.0,
            lambda: net.transport.remove_link_faults(handle["id"]),
        )
        summary = net.run()
        return net, summary

    def test_link_faults_evaluated_per_recipient_in_both_modes(self):
        batched_net, batched_summary = self._faulted_run(batched=True)
        reference_net, reference_summary = self._faulted_run(batched=False)
        assert batched_summary == reference_summary
        for counter in ("lost", "duplicated", "reordered"):
            assert getattr(batched_net.transport, counter) == getattr(
                reference_net.transport, counter
            ), counter
        assert batched_net.transport.lost > 0
        assert _transport_totals(batched_net) == _transport_totals(
            reference_net
        )
        assert _node_cache_state(batched_net) == _node_cache_state(
            reference_net
        )
