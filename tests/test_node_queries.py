"""Node-level tests for query handling (§2.5) on a line topology.

``MicroNet`` builds n0 - n1 - n2 - n3 where n0 is the authority for
every key, so CUP-tree depths are literal: n3 is three hops out.
"""

from helpers import MicroNet


class TestLocalHits:
    def test_authority_answers_local_query_immediately(self):
        net = MicroNet()
        net.seed_authority("k")
        assert net.authority.post_local_query("k") is True
        assert net.metrics.local_hits == 1
        assert net.metrics.query_hops == 0

    def test_query_without_entries_gets_empty_answer_at_authority(self):
        net = MicroNet()
        assert net.authority.post_local_query("nothing") is True
        # An empty directory still answers (negative response).

    def test_cached_fresh_entries_answer_locally(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        assert net.node(3).post_local_query("k") is True


class TestMissPath:
    def test_miss_travels_to_authority_and_back(self):
        net = MicroNet()
        net.seed_authority("k")
        assert net.node(3).post_local_query("k") is False
        net.settle()
        assert net.metrics.query_hops == 3
        assert net.metrics.first_time_update_hops == 3
        assert net.metrics.misses == 1
        assert net.metrics.answers_delivered == 1

    def test_response_populates_path_caches(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        for i in (1, 2, 3):
            state = net.node(i).cache.get("k")
            assert state is not None
            assert state.has_fresh(net.sim.now)

    def test_intermediate_fresh_cache_answers(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(2).post_local_query("k")
        net.settle()
        hops_before = net.metrics.query_hops
        net.node(3).post_local_query("k")
        net.settle()
        # n3's query stops at n2 (fresh cache): one hop up, one down.
        assert net.metrics.query_hops == hops_before + 1

    def test_miss_classification_first_time_vs_freshness(self):
        net = MicroNet()
        net.seed_authority("k", lifetime=10.0)
        net.node(3).post_local_query("k")
        net.settle()
        assert net.metrics.first_time_misses == 1
        net.sim.run_until(50.0)  # everything expires
        net.refresh_authority("k", lifetime=10.0)
        net.node(3).post_local_query("k")
        net.settle()
        assert net.metrics.freshness_misses == 1


class TestCoalescing:
    def test_burst_collapses_to_one_upstream_query(self):
        net = MicroNet()
        net.seed_authority("k")
        node = net.node(3)
        node.post_local_query("k")
        node.post_local_query("k")
        node.post_local_query("k")
        assert net.metrics.coalesced_queries == 2
        net.settle()
        # One query chain up, one response chain down.
        assert net.metrics.query_hops == 3
        assert net.metrics.answers_delivered == 3

    def test_neighbor_queries_coalesce_too(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.node(3).post_local_query("k")
        net.settle()
        state = net.node(3).cache.get("k")
        assert not state.pending_first_update
        assert state.local_waiters == 0

    def test_interest_bit_set_for_querying_neighbor(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        assert "n3" in net.node(2).cache.get("k").interest
        assert "n2" in net.node(1).cache.get("k").interest

    def test_pfu_timeout_recovers_lost_response(self):
        net = MicroNet(pfu_timeout=5.0)
        net.seed_authority("k")
        # Sever n1 so the first query dies silently.
        net.transport.unregister("n1")
        net.node(3).post_local_query("k")
        net.settle(2.0)
        assert net.metrics.answers_delivered == 0
        # Reconnect; a query after the timeout re-pushes upstream.
        net.transport.register("n1", net.nodes["n1"])
        net.sim.run_until(net.sim.now + 10.0)
        net.node(3).post_local_query("k")
        net.settle()
        assert net.metrics.answers_delivered >= 1

    def test_waiting_set_cleared_after_response(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        for i in (1, 2):
            assert net.node(i).cache.get("k").waiting == ()


class TestNonCoalescingBaseline:
    def test_every_query_forwarded_individually(self):
        net = MicroNet(coalesce=False, persistent_interest=False)
        net.seed_authority("k")
        node = net.node(3)
        node.post_local_query("k")
        node.post_local_query("k")
        net.settle()
        assert net.metrics.coalesced_queries == 0
        # Two full query chains and two full response chains.
        assert net.metrics.query_hops == 6
        assert net.metrics.first_time_update_hops == 6

    def test_response_retraces_query_path_and_caches(self):
        net = MicroNet(coalesce=False, persistent_interest=False)
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        for i in (1, 2, 3):
            assert net.node(i).cache.get("k").has_fresh(net.sim.now)

    def test_no_interest_bits_in_standard_mode(self):
        net = MicroNet(coalesce=False, persistent_interest=False)
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        for i in (0, 1, 2):
            state = net.node(i).cache.get("k")
            assert state is None or state.interest == ()

    def test_intermediate_cache_still_answers(self):
        net = MicroNet(coalesce=False, persistent_interest=False)
        net.seed_authority("k")
        net.node(2).post_local_query("k")
        net.settle()
        before = net.metrics.query_hops
        net.node(3).post_local_query("k")
        net.settle()
        assert net.metrics.query_hops == before + 1


class TestPopularity:
    def test_every_query_bumps_popularity(self):
        net = MicroNet()
        net.seed_authority("k")
        net.node(3).post_local_query("k")
        net.settle()
        net.node(3).post_local_query("k")  # local hit also counts
        # n3 saw 2 queries; popularity reset happens on update arrivals.
        state = net.node(3).cache.get("k")
        assert state.popularity >= 1
