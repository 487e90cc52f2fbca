"""Property-based protocol tests: random operation interleavings.

Hypothesis drives random sequences of protocol stimuli (local queries,
replica refreshes/births/deaths, time advancement, capacity changes)
against a line-topology CUP deployment and checks structural invariants
that must hold in *every* reachable state:

* the waiting set is always a subset of the interest set;
* a node never holds local waiters without a pending first update
  (outside the standard-caching mode);
* sequence numbers in any cache never exceed the authority's;
* every query is eventually answered once traffic settles;
* cost accounting identities hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MicroNet

from repro.core.channels import CapacityConfig
from repro.core.policies import AllOutPolicy, SecondChancePolicy

KEYS = ("alpha", "beta")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, 3), st.sampled_from(KEYS)),
        st.tuples(st.just("refresh"), st.just(0), st.sampled_from(KEYS)),
        st.tuples(st.just("advance"), st.integers(1, 60), st.none()),
        st.tuples(st.just("capacity"), st.integers(0, 3),
                  st.sampled_from((0.0, 0.5, 1.0))),
    ),
    min_size=1,
    max_size=30,
)


def apply_operations(net, ops):
    for op, arg, extra in ops:
        if op == "query":
            net.node(arg).post_local_query(extra)
        elif op == "refresh":
            net.refresh_authority(extra, lifetime=80.0)
        elif op == "advance":
            net.sim.run_until(net.sim.now + float(arg))
        elif op == "capacity":
            net.nodes[f"n{arg}"].set_capacity(
                CapacityConfig(fraction=extra)
            )
    # Restore capacity and let every in-flight message land.
    for node in net.nodes.values():
        node.set_capacity(CapacityConfig())
    net.settle(30.0)


def check_invariants(net):
    now = net.sim.now
    for name, node in net.nodes.items():
        for state in node.cache:
            assert set(state.waiting) <= set(state.interest), (
                f"waiting !<= interest at {name}:{state.key}"
            )
            if not state.pending_first_update:
                assert state.local_waiters == 0, (
                    f"stranded local waiters at {name}:{state.key}"
                )
            for entry in state.entries.values():
                authority = net.authority.authority_index
                directory = {
                    e.replica_id: e for e in authority.entries(state.key)
                }
                issued = directory.get(entry.replica_id)
                if issued is not None:
                    assert entry.sequence <= issued.sequence, (
                        f"cache ahead of authority at {name}:{state.key}"
                    )
    metrics = net.metrics
    assert metrics.local_hits + metrics.misses == metrics.queries_posted
    assert (
        metrics.first_time_misses + metrics.freshness_misses
        == metrics.misses
    )
    assert metrics.total_cost == metrics.miss_cost + metrics.overhead_cost


@given(operations)
@settings(max_examples=50, deadline=None)
def test_invariants_under_random_interleavings_cup(ops):
    net = MicroNet(length=4, policy=SecondChancePolicy(), pfu_timeout=5.0)
    for key in KEYS:
        net.seed_authority(key, lifetime=80.0)
    apply_operations(net, ops)
    check_invariants(net)


@given(operations)
@settings(max_examples=30, deadline=None)
def test_invariants_under_random_interleavings_all_out(ops):
    net = MicroNet(length=4, policy=AllOutPolicy(), pfu_timeout=5.0)
    for key in KEYS:
        net.seed_authority(key, lifetime=80.0)
    apply_operations(net, ops)
    check_invariants(net)


@given(operations)
@settings(max_examples=30, deadline=None)
def test_invariants_standard_mode(ops):
    net = MicroNet(
        length=4, coalesce=False, persistent_interest=False, pfu_timeout=5.0
    )
    for key in KEYS:
        net.seed_authority(key, lifetime=80.0)
    apply_operations(net, ops)
    metrics = net.metrics
    assert metrics.overhead_cost == 0  # standard caching never propagates
    assert metrics.local_hits + metrics.misses == metrics.queries_posted


@given(operations)
@settings(max_examples=30, deadline=None)
def test_all_queries_eventually_answered(ops):
    net = MicroNet(length=4, policy=SecondChancePolicy(), pfu_timeout=5.0)
    for key in KEYS:
        net.seed_authority(key, lifetime=80.0)
    apply_operations(net, ops)
    # After settling (capacities restored, PFU timeouts passed), every
    # posted query must have been answered: locally or asynchronously.
    net.sim.run_until(net.sim.now + 30.0)
    for node in net.nodes.values():
        for state in node.cache:
            assert state.local_waiters == 0 or state.pending_first_update
    resolved = net.metrics.local_hits + net.metrics.answers_delivered
    assert resolved >= net.metrics.queries_posted
