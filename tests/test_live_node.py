"""Live daemon: in-process clusters over real localhost sockets.

Each test drives an ``asyncio.run`` scenario (plain pytest — no asyncio
plugin): daemons bind OS-assigned ports, dial each other, and push CUP
traffic through :class:`~repro.net.transport.LiveTransport` — the same
core classes the simulator runs, now over TCP.
"""

import asyncio
import time

import pytest

from repro.core.entry import IndexEntry
from repro.core.keepalive import KeepAliveMessage
from repro.core.messages import (
    ClearBitMessage,
    QueryMessage,
    ReplicaEvent,
    ReplicaMessage,
    UpdateMessage,
    UpdateType,
)
from repro.metrics.collector import MetricsCollector
from repro.net.clock import LiveClock
from repro.net.daemon import DEAD_AFTER, LiveNode, LiveNodeConfig
from repro.net.seam import ClockSeam, RouterSeam
from repro.net.transport import LiveTransport
from repro.net.wire import FrameDecoder, encode_frame
from repro.sim.engine import Simulator
from repro.sim.network import Transport, TransportCore


# ----------------------------------------------------------------------
# The seam: one hop ledger, and the surface core/ consumes, in both worlds
# ----------------------------------------------------------------------


class _NullRouter:
    def send_wire(self, src, dst, message, direct):
        return False

    def is_peer(self, node_id):
        return False

    def call_soon(self, fn, *args):
        fn(*args)


class _Recorder:
    def __init__(self, log, me):
        self.log, self.me = log, me

    def receive(self, message, sender):
        self.log.append((self.me, sender, message.kind, message.hops))


def _drive_ledger(transport, settle):
    """One fixed message sequence; returns everything the ledger shows."""
    collector = MetricsCollector()
    transport.attach_metrics(collector)
    observed, received = [], []
    for tag in ("first", "second"):
        transport.add_send_observer(
            lambda src, dst, message, tag=tag: observed.append((
                tag, src, dst, message.kind,
                getattr(message, "update_type", None), message.hops,
            ))
        )
    for node_id in ("b", "c", "d"):
        transport.register(node_id, _Recorder(received, node_id))

    def update(update_type):
        entry = IndexEntry("k", "r1", "addr", 300.0, 0.0)
        return UpdateMessage("k", update_type, (entry,), "r1", 0.0)

    transport.send("a", "b", QueryMessage("k"))
    for update_type in UpdateType:
        transport.send("a", "b", update(update_type))
    transport.send("a", "b", ClearBitMessage("k"))
    transport.send("a", "b", KeepAliveMessage())
    relayed = update(UpdateType.REFRESH)
    relayed.hops = 2
    transport.send_fanout("a", ("b", "c", "d"), relayed)
    transport.send("a", "ghost", QueryMessage("k"))
    transport.send_direct(
        "b", ReplicaMessage(ReplicaEvent.BIRTH, "k", "r1", "addr", 300.0),
        src="replica",
    )
    settle()
    counters = {
        name: getattr(transport, name)
        for name in ("sent", "sent_direct", "delivered", "dropped",
                     "blocked", "lost", "duplicated", "reordered")
    }
    slots = (collector.query_hops, collector.clear_bit_hops,
             collector.update_hops)
    # Arrival order is the world's business (a zero-delay direct message
    # overtakes link traffic in the simulator); who got what is not.
    return counters, slots, observed, sorted(received), relayed.hops


def test_hop_ledger_parity_both_worlds():
    # One TransportCore charges the hop in both worlds: the same message
    # sequence must leave identical counters, identical collector slots
    # and an identical observer call sequence behind.
    sim = Simulator()
    simulated = Transport(sim)
    live = LiveTransport(LiveClock(), _NullRouter())
    assert isinstance(simulated, TransportCore)
    assert isinstance(live, TransportCore)
    in_sim = _drive_ledger(simulated, sim.run)
    in_live = _drive_ledger(live, lambda: None)
    assert in_sim == in_live
    counters, slots, observed, received, relayed_hops = in_sim
    assert counters == {
        "sent": 11, "sent_direct": 1, "delivered": 11, "dropped": 1,
        "blocked": 0, "lost": 0, "duplicated": 0, "reordered": 0,
    }
    assert slots == (2, 1, {
        UpdateType.FIRST_TIME: 1, UpdateType.REFRESH: 4,
        UpdateType.DELETE: 1, UpdateType.APPEND: 1,
    })
    # Every hop reaches every observer, in registration order; the
    # fan-out forks one envelope per child and leaves the original's
    # hop count alone.
    assert len(observed) == 22
    assert [call[0] for call in observed[:4]] == ["first", "second"] * 2
    assert [call[2:] for call in observed[-8:-2:2]] == [
        (dst, "update", UpdateType.REFRESH, 3) for dst in "bcd"
    ]
    assert relayed_hops == 2
    assert live.received == 0


def test_clock_seam_conformance_both_worlds():
    assert isinstance(Simulator(), ClockSeam)
    assert isinstance(LiveClock(), ClockSeam)
    assert not isinstance(object(), ClockSeam)


def test_router_seam_conformance():
    assert isinstance(_NullRouter(), RouterSeam)
    assert isinstance(LiveNode(LiveNodeConfig(port=0)), RouterSeam)
    assert not isinstance(LiveClock(), RouterSeam)


def test_live_clock_tracks_wall_time():
    clock = LiveClock()
    assert abs(clock.now - time.time()) < 1.0
    with pytest.raises(ValueError):
        asyncio.run(_schedule_negative(clock))


async def _schedule_negative(clock):
    clock.schedule(-1.0, lambda: None)


def test_live_transport_rejects_self_send():
    transport = LiveTransport(LiveClock(), _NullRouter())
    with pytest.raises(ValueError):
        transport.send("n1", "n1", _Probe())


def test_live_transport_counts_unroutable_as_dropped():
    transport = LiveTransport(LiveClock(), _NullRouter())
    transport.send("n1", "n2", _Probe())
    assert transport.sent == 1
    assert transport.dropped == 1


def test_live_transport_counts_wire_arrivals_as_received():
    transport = LiveTransport(LiveClock(), _NullRouter())
    inbox = []

    class Handler:
        def receive(self, message, sender):
            inbox.append((message, sender))

    transport.register("n2", Handler())
    transport.deliver_wire("n1", "n2", _Probe())
    assert transport.received == 1
    assert transport.delivered == 1
    assert inbox and inbox[0][1] == "n1"


class _Probe:
    kind = "keepalive"
    hops = 0


# ----------------------------------------------------------------------
# Cluster scenarios
# ----------------------------------------------------------------------


async def _poll(predicate, timeout=10.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(interval)


async def _start_cluster(count, **overrides):
    overrides.setdefault("quiet", True)
    overrides.setdefault("keepalive_period", 0.2)
    first = LiveNode(LiveNodeConfig(port=0, **overrides))
    await first.start()
    nodes = [first]
    for _ in range(count - 1):
        node = LiveNode(
            LiveNodeConfig(port=0, peers=(first.node_id,), **overrides)
        )
        await node.start()
        nodes.append(node)
    want = {node.node_id for node in nodes}
    await _poll(lambda: all(node.members == want for node in nodes))
    return nodes


async def _stop_all(nodes):
    for node in reversed(nodes):
        if not node._stopped.is_set():
            node.request_stop()
            await node.serve_forever()


def _run_cluster(count, scenario, **overrides):
    async def main():
        nodes = await _start_cluster(count, **overrides)
        try:
            return await scenario(nodes)
        finally:
            await _stop_all(nodes)

    return asyncio.run(main())


def test_three_nodes_converge_membership():
    async def scenario(nodes):
        want = {node.node_id for node in nodes}
        for node in nodes:
            assert node.members == want
            assert set(node.overlay.node_ids()) == want

    _run_cluster(3, scenario)


def test_put_propagates_and_get_hits_everywhere():
    async def scenario(nodes):
        key = "live/key"
        reply = await nodes[0]._client_put(
            {"t": "put", "key": key, "replica_id": "r1",
             "address": "addr", "lifetime": 120.0}
        )
        assert reply["t"] == "ok"
        authority = reply["authority"]
        assert authority in {node.node_id for node in nodes}
        for node in nodes:
            result = await node._client_get({"key": key, "timeout": 10.0})
            assert result["ok"], result
            assert result["entries"][0]["replica_id"] == "r1"
        # CUP left every subscriber a local copy: repeat gets are hits.
        for node in nodes:
            again = await node._client_get({"key": key, "timeout": 5.0})
            assert again["hit"], again

    _run_cluster(3, scenario)


def test_refresh_pushes_to_subscribers_unprompted():
    async def scenario(nodes):
        key = "live/refresh"
        put = {"t": "put", "key": key, "replica_id": "r1",
               "address": "addr", "lifetime": 120.0}
        authority_id = (await nodes[0]._client_put(dict(put)))["authority"]
        subscribers = [n for n in nodes if n.node_id != authority_id]
        for node in subscribers:
            first = await node._client_get({"key": key, "timeout": 10.0})
            assert first["ok"], first
        await nodes[0]._client_put(dict(put))  # birth again -> REFRESH push

        def arrived(node):
            state = node.node.cache.get_or_create(key)
            entries = state.fresh_entries(node.clock.now)
            return any(e.sequence >= 2 for e in entries)

        await _poll(lambda: all(arrived(n) for n in subscribers))

    _run_cluster(3, scenario)


def test_quiescent_audit_is_clean_after_traffic():
    async def scenario(nodes):
        for i, key in enumerate(["a", "b", "c"]):
            await nodes[i % len(nodes)]._client_put(
                {"t": "put", "key": key, "replica_id": f"r{i}",
                 "address": "x", "lifetime": 60.0}
            )
        for node in nodes:
            for key in ["a", "b", "c"]:
                result = await node._client_get(
                    {"key": key, "timeout": 10.0}
                )
                assert result["ok"], result
        await asyncio.sleep(0.1)  # drain in-flight clear-bit traffic
        for node in nodes:
            audit = node._client_audit()
            assert audit["ok"] is True, audit["violations"]
            info = node._client_info()
            assert info["violations"] == 0

    _run_cluster(3, scenario)


def test_graceful_leave_shrinks_membership_without_violations():
    async def scenario(nodes):
        leaver = nodes[-1]
        leaver.request_stop()
        await leaver.serve_forever()
        rest = nodes[:-1]
        want = {node.node_id for node in rest}
        await _poll(lambda: all(node.members == want for node in rest))
        for node in rest:
            assert node._client_audit()["ok"] is True

    _run_cluster(3, scenario)


def test_silent_crash_is_detected_by_keepalive():
    async def scenario(nodes):
        victim = nodes[-1]
        # Die without a leaving broadcast: stop timers, drop sockets.
        victim.keepalive.stop()
        victim._server.close()
        for link in list(victim._conns.values()):
            if link.reader_task is not None:
                link.reader_task.cancel()
            link.close()
        victim._conns.clear()
        victim._stopping = True
        victim._stopped.set()
        rest = nodes[:-1]
        want = {node.node_id for node in rest}
        await _poll(
            lambda: all(node.members == want for node in rest),
            timeout=20.0,
        )
        for node in rest:
            assert node._client_audit()["ok"] is True

    _run_cluster(3, scenario, keepalive_period=0.1, keepalive_misses=3)


def test_garbage_frames_drop_the_connection_not_the_node():
    async def scenario(nodes):
        node = nodes[0]
        host, _, port = node.node_id.rpartition(":")
        reader, writer = await asyncio.open_connection(host, int(port))
        writer.write(b"GET / HTTP/1.1\r\n\r\n")
        await writer.drain()
        data = await asyncio.wait_for(reader.read(64), timeout=5.0)
        assert data == b""  # connection dropped, nothing leaked back
        writer.close()
        # The daemon survives and still serves well-formed clients.
        reply = await _socket_request(node, {"t": "info"})
        assert reply["t"] == "info"
        assert reply["id"] == node.node_id

    _run_cluster(2, scenario)


def test_socket_client_protocol_end_to_end():
    async def scenario(nodes):
        put = await _socket_request(
            nodes[0],
            {"t": "put", "key": "sock/key", "replica_id": "r1",
             "address": "a", "lifetime": 60.0},
        )
        assert put["t"] == "ok"
        got = await _socket_request(
            nodes[1], {"t": "get", "key": "sock/key", "timeout": 10.0}
        )
        assert got["ok"], got
        assert got["entries"][0]["key"] == "sock/key"
        bad = await _socket_request(nodes[0], {"t": "frobnicate"})
        assert bad["t"] == "error"

    _run_cluster(2, scenario)


async def _socket_request(node, frame):
    host, _, port = node.node_id.rpartition(":")
    reader, writer = await asyncio.open_connection(host, int(port))
    try:
        writer.write(encode_frame(frame))
        await writer.drain()
        decoder = FrameDecoder()
        while True:
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=15.0)
            assert data, "daemon closed the connection without replying"
            frames = decoder.feed(data)
            if frames:
                return frames[0]
    finally:
        writer.close()


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        LiveNodeConfig(mode="gossip")


def test_config_rejects_bad_resilience_knobs():
    with pytest.raises(ValueError):
        LiveNodeConfig(snapshot_interval=0.0)
    with pytest.raises(ValueError):
        LiveNodeConfig(dial_backoff_base=0.0)
    with pytest.raises(ValueError):
        LiveNodeConfig(dial_backoff_base=2.0, dial_backoff_max=1.0)
    with pytest.raises(ValueError):
        LiveNodeConfig(outbox_limit=0)


# ----------------------------------------------------------------------
# Crash durability and connection resilience
# ----------------------------------------------------------------------


async def _hard_kill(node):
    """Die like ``kill -9``: no leaving frame, no final snapshot."""
    node.keepalive.stop()
    if node._gc_process is not None:
        node._gc_process.stop()
    if node._snapshot_process is not None:
        node._snapshot_process.stop()
    node._server.close()
    for task in list(node._dialing.values()):
        task.cancel()
    for link in list(node._conns.values()):
        if link.reader_task is not None:
            link.reader_task.cancel()
        link.close()
    node._conns.clear()
    for health in node._health.values():
        health.cancel_timers()
    node._stopping = True
    node._stopped.set()


def test_warm_rejoin_restores_cache_and_reconverges(tmp_path):
    state_dir = str(tmp_path / "state")
    common = dict(quiet=True, keepalive_period=0.2)

    async def main():
        first = LiveNode(LiveNodeConfig(port=0, **common))
        await first.start()
        second = LiveNode(LiveNodeConfig(
            port=0, peers=(first.node_id,), state_dir=state_dir,
            snapshot_interval=60.0, **common,
        ))
        await second.start()
        want = {first.node_id, second.node_id}
        await _poll(lambda: first.members == want
                    and second.members == want)

        # A key whose authority is FIRST, so SECOND holds a subscriber
        # copy that only durability can bring back after the crash.
        key = next(
            f"rejoin/k{i}" for i in range(200)
            if second.overlay.authority(f"rejoin/k{i}") == first.node_id
        )
        put = await second._client_put(
            {"t": "put", "key": key, "replica_id": "r1",
             "lifetime": 300.0}
        )
        assert put["t"] == "ok"
        got = await second._client_get(
            {"t": "get", "key": key, "timeout": 10.0}
        )
        assert got["ok"], got
        await _poll(lambda: second.node.cache.states[key].has_fresh(
            second.clock.now))
        second._snapshot_state()  # the cadence's write, forced
        assert second.metrics.state_snapshots == 1
        victim_port = int(second.node_id.rsplit(":", 1)[1])
        await _hard_kill(second)
        await _poll(lambda: first.members == {first.node_id},
                    timeout=20.0)

        # Restart on the same port from the state dir alone: no seeds.
        reborn = LiveNode(LiveNodeConfig(
            port=victim_port, state_dir=state_dir,
            snapshot_interval=60.0, **common,
        ))
        await reborn.start()
        try:
            assert reborn._rejoined is True
            assert reborn.metrics.state_restored_keys >= 1
            assert key in reborn.node.cache.states
            # Immediate local hit from the restored cache — before any
            # pull could have refilled it over the network.
            hit = await reborn._client_get(
                {"t": "get", "key": key, "timeout": 5.0}
            )
            assert hit["ok"] and hit["hit"], hit
            await _poll(lambda: first.members == want
                        and reborn.members == want, timeout=20.0)
            assert reborn._client_info()["rejoined"] is True
        finally:
            await _stop_all([first, reborn])

    asyncio.run(main())


def test_cold_start_without_state_file_serves_normally(tmp_path):
    # A configured-but-empty state dir must behave exactly like a
    # stateless boot (the chaos drill's cold path).
    async def main():
        node = LiveNode(LiveNodeConfig(
            port=0, quiet=True, state_dir=str(tmp_path / "empty"),
        ))
        await node.start()
        try:
            assert node._rejoined is False
            info = node._client_info()
            assert info["rejoined"] is False
            assert info["persistence"]["saves"] == 0
        finally:
            await _stop_all([node])

    asyncio.run(main())


def test_unreachable_member_is_suspected_then_declared_dead():
    async def scenario(nodes):
        node = nodes[0]
        ghost = "127.0.0.1:1"  # nothing listens on port 1
        node._add_member(ghost)
        node._ensure_link(ghost, probe=True)
        await _poll(lambda: ghost not in node.members, timeout=20.0)
        assert node.metrics.dial_failures >= DEAD_AFTER
        assert node.metrics.dial_retries >= 1
        assert node.metrics.peers_suspected >= 1
        assert node.metrics.peers_declared_dead >= 1
        assert ghost not in node._health  # bookkeeping fully reclaimed

    _run_cluster(1, scenario, dial_backoff_base=0.02,
                 dial_backoff_max=0.05, dial_backoff_jitter=0.0)


def _one_sided_pair(overlay):
    """A node and an overlay neighbour that does not count it as one."""
    for node_id in overlay.node_ids():
        for neighbor in overlay.neighbors(node_id):
            if node_id not in overlay.neighbors(neighbor):
                return node_id, neighbor
    return None


def test_an_idle_cluster_with_one_sided_neighbours_evicts_nobody():
    # Keep-alives follow overlay neighbours, and Chord's are one-sided:
    # X watches a finger Y that may never send to X.  X's suspicion row
    # is the probe Y answers by refuting it, so an idle cluster holds.
    period, misses = 0.2, 3
    config = dict(quiet=True, keepalive_period=period,
                  keepalive_misses=misses)

    async def main():
        nodes = [LiveNode(LiveNodeConfig(port=0, **config))]
        await nodes[0].start()
        try:
            while (len(nodes) < 8
                   and _one_sided_pair(nodes[0].overlay) is None):
                nodes.append(LiveNode(LiveNodeConfig(
                    port=0, peers=(nodes[0].node_id,), **config)))
                await nodes[-1].start()
            want = {node.node_id for node in nodes}
            await _poll(lambda: all(node.members == want for node in nodes))
            assert _one_sided_pair(nodes[0].overlay) is not None
            # Suspicion comes after `misses` silent periods (one more at
            # the tick's granularity) and death a grace of `misses` later.
            window = period * (misses + 1) + period * misses
            await asyncio.sleep(2 * window)
            assert [node.metrics.peers_declared_dead for node in nodes] \
                == [0] * len(nodes)
            assert all(node.members == want for node in nodes)
        finally:
            await _stop_all(nodes)

    asyncio.run(main())


def test_a_stale_suspicion_cannot_evict_a_node_that_came_back():
    period, misses = 0.5, 3
    common = dict(quiet=True, keepalive_misses=misses)

    async def main():
        # X's backoff outlasts the test: nothing but Y's own frames can
        # tell X that Y is back.
        x = LiveNode(LiveNodeConfig(
            port=0, keepalive_period=period, dial_backoff_base=30.0,
            dial_backoff_max=30.0, **common))
        await x.start()
        y = LiveNode(LiveNodeConfig(
            port=0, peers=(x.node_id,), keepalive_period=period, **common))
        await y.start()
        await _poll(lambda: x.members == {x.node_id, y.node_id})
        await _hard_kill(y)
        await _poll(lambda: x.metrics.peers_suspected >= 1, timeout=10.0)
        # Back cold on the same port, too slow to send X a keep-alive
        # before X's grace for the old suspicion runs out.
        reborn = LiveNode(LiveNodeConfig(
            port=int(y.node_id.rsplit(":", 1)[1]), peers=(x.node_id,),
            keepalive_period=60.0, **common))
        await reborn.start()
        try:
            await asyncio.sleep(period * misses + period)
            assert x.metrics.peers_declared_dead == 0
            assert reborn.node_id in x.members
            assert reborn.node_id in x._conns
        finally:
            await _stop_all([x, reborn])

    asyncio.run(main())


def test_dial_backoff_gates_non_probe_callers():
    async def scenario(nodes):
        node = nodes[0]
        ghost = "127.0.0.1:1"
        node._seeds.add(ghost)  # keep the retry alive w/o membership
        assert (await node._ensure_link(ghost)) is None
        assert node._health[ghost].retry_handle is not None
        # During the cooldown a plain caller gets None without a dial;
        # only the pending (far-future) redial owns the next attempt.
        assert (await node._ensure_link(ghost)) is None
        assert node.metrics.dial_failures == 1

    _run_cluster(1, scenario, dial_backoff_base=30.0,
                 dial_backoff_max=30.0)


def test_outbox_is_bounded_and_overflow_counted():
    async def scenario(nodes):
        a, b = nodes
        link = a._conns[b.node_id]
        link.writer_task.cancel()  # wedge the drain: queue can only fill
        for _ in range(a.config.outbox_limit + 5):
            link.send_json({"t": "peers", "peers": {}})
        assert link.outbox.qsize() <= a.config.outbox_limit
        assert link.overflows >= 5
        assert a.metrics.outbox_overflows >= 5
        assert a._client_info()["livenode"]["outbox_overflows"] >= 5

    _run_cluster(2, scenario, outbox_limit=8)


def test_simultaneous_dial_losers_are_stopped_with_the_node():
    # Two nodes dial each other at once: each ends up with two links to
    # its peer and the later one takes the registry.  When the dials
    # interleave so that one connection loses at *both* ends, neither
    # side's shutdown used to close it: its reader and writer tasks were
    # left pending, and reported as "Task was destroyed but it is
    # pending" once collected.
    async def main():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(
            lambda _loop, context: reported.append(context))
        nodes = [LiveNode(LiveNodeConfig(port=0, quiet=True))
                 for _ in range(2)]
        for node in nodes:
            await node.start()
        a, b = nodes
        a._add_member(b.node_id)
        b._add_member(a.node_id)
        # A's dial lands and B accepts it; B's own dial, begun before
        # that, completes only now (``_dial`` is what ``_ensure_link``
        # had already started): at B the dialed link wins, and its hello
        # makes A's accepted link win there.
        first = await a._ensure_link(b.node_id, probe=True)
        await _poll(lambda: a.node_id in b._conns)
        second = await b._dial(a.node_id)
        await _poll(lambda: a._conns[b.node_id] is not first)
        assert b._conns[a.node_id] is second
        assert len(a._links) == len(b._links) == 2
        await _stop_all(nodes)
        assert not a._links and not b._links
        await asyncio.sleep(0)  # the accept callbacks' last step
        pending = [task for task in asyncio.all_tasks()
                   if task is not asyncio.current_task()]
        assert pending == []
        assert reported == []

    asyncio.run(main())


def test_info_reports_what_the_store_is_doing(tmp_path):
    async def main():
        node = LiveNode(LiveNodeConfig(
            port=0, quiet=True, state_dir=str(tmp_path),
            snapshot_interval=3600.0))
        await node.start()
        try:
            key = _keys_owned_by(node, "info", 1)[0]
            put = {"key": key, "replica_id": "r1", "lifetime": 300.0}
            await node._client_put(dict(put))
            node._snapshot_state()  # the first save of a process: a base
            first = node._client_info()["persistence"]
            assert first["last_save_kind"] == "base"
            assert first["base_bytes"] > 0 and first["log_bytes"] == 0
            await node._client_put(dict(put, event="refresh"))
            await asyncio.sleep(0)  # the direct message to itself lands
            node._snapshot_state()
            second = node._client_info()["persistence"]
            assert second == dict(
                first, saves=2, last_save_kind="log", log_records=1,
                log_bytes=second["log_bytes"],
                last_save_ms=second["last_save_ms"])
            assert second["log_bytes"] > 0
            assert set(second) == {
                "path", "saves", "base_bytes", "log_bytes", "log_records",
                "last_save_kind", "last_save_ms", "replayed",
                "torn_dropped", "stale_dropped"}
        finally:
            await _stop_all([node])

    asyncio.run(main())


def test_hazard_window_client_op():
    async def scenario(nodes):
        node = nodes[0]
        reply = await _socket_request(
            node, {"t": "hazard", "action": "open",
                   "hazards": ["loss"], "duration": 30.0},
        )
        assert reply["t"] == "ok"
        assert "loss" in reply["active"]
        reply = await _socket_request(
            node, {"t": "hazard", "action": "close",
                   "hazards": ["loss"]},
        )
        assert reply["t"] == "ok"
        assert "loss" not in reply["active"]
        bad = await _socket_request(
            node, {"t": "hazard", "action": "open",
                   "hazards": ["bogus"]},
        )
        assert bad["t"] == "error"

    _run_cluster(1, scenario)


def test_info_reports_resilience_surface():
    async def scenario(nodes):
        info = nodes[0]._client_info()
        assert info["rejoined"] is False
        assert info["open_gaps"] == 0
        assert info["persistence"] is None
        assert "state_restored_keys" in info["livenode"]
        assert isinstance(info["peers"], dict)

    _run_cluster(1, scenario)


# ----------------------------------------------------------------------
# The get path: woken by the update that answers it
# ----------------------------------------------------------------------


def _keys_owned_by(owner, prefix, count):
    """``count`` keys whose authority is ``owner`` on its current ring."""
    keys, i = [], 0
    while len(keys) < count:
        key = f"{prefix}/{i}"
        if owner.overlay.authority(key) == owner.node_id:
            keys.append(key)
        i += 1
    return keys


async def _give_birth(authority, keys):
    for key in keys:
        reply = await authority._client_put(
            {"key": key, "replica_id": "r1", "address": "a",
             "lifetime": 120.0})
        assert reply["authority"] == authority.node_id
    index = authority.node.authority_index
    await _poll(lambda: all(
        index.fresh_entries(key, authority.clock.now) for key in keys))


def test_first_gets_cost_the_network_not_a_timer():
    async def scenario(nodes):
        authority, reader = nodes
        keys = _keys_owned_by(authority, "wake/cold", 50)
        await _give_birth(authority, keys)
        began = time.monotonic()
        replies = [await reader._client_get({"key": key}) for key in keys]
        elapsed = time.monotonic() - began
        for reply in replies:
            assert reply["ok"] and reply["hit"] is False, reply
            assert [e["sequence"] for e in reply["entries"]] == [1]
        # Fifty waits on a 20 ms poll would be 1.05 s.
        assert elapsed < 0.5
        assert reader._get_waiters == {}

    _run_cluster(2, scenario)


def test_get_deadline_and_cancellation_leave_no_waiter():
    async def scenario(nodes):
        authority, reader = nodes
        unborn, abandoned = _keys_owned_by(authority, "wake/unborn", 2)
        began = time.monotonic()
        reply = await reader._client_get({"key": unborn, "timeout": 0.3})
        elapsed = time.monotonic() - began
        assert reply["ok"] is False and reply["hit"] is False
        assert reply["error"] == "no fresh entries within 0.3s"
        assert 0.3 <= elapsed < 0.6
        assert reader._get_waiters == {}

        get = asyncio.ensure_future(reader._client_get({"key": abandoned}))
        await _poll(lambda: abandoned in reader._get_waiters)
        get.cancel()
        with pytest.raises(asyncio.CancelledError):
            await get
        assert reader._get_waiters == {}

    _run_cluster(2, scenario)


def test_get_waiting_at_the_authority_is_woken_by_the_birth():
    async def scenario(nodes):
        authority = nodes[0]
        late, unborn = _keys_owned_by(authority, "wake/late", 2)
        get = asyncio.ensure_future(authority._client_get({"key": late}))
        await asyncio.sleep(0.05)
        assert not get.done()
        began = time.monotonic()
        await _give_birth(authority, [late])
        reply = await asyncio.wait_for(get, timeout=1.0)
        assert time.monotonic() - began < 1.0  # not the 5 s deadline
        assert reply["ok"] and reply["hit"] is False, reply

        # Waiting where nothing is upstream is not a stream of hits.
        metrics = authority.metrics
        before = (metrics.queries_posted, metrics.local_hits,
                  metrics.authority_answers)
        reply = await authority._client_get({"key": unborn, "timeout": 1.3})
        assert reply["ok"] is False
        assert (metrics.queries_posted, metrics.local_hits,
                metrics.authority_answers) == tuple(n + 1 for n in before)

    _run_cluster(2, scenario)


def test_concurrent_cold_gets_coalesce_behind_one_query():
    async def scenario(nodes):
        authority, reader = nodes
        key, = _keys_owned_by(authority, "wake/burst", 1)
        await _give_birth(authority, [key])
        metrics = reader.metrics
        forwarded = metrics.queries_forwarded
        coalesced = metrics.coalesced_queries
        # gather() runs every get up to its first wait before the loop
        # can read a reply: all eight post before any answer exists.
        replies = await asyncio.wait_for(
            asyncio.gather(*(reader._client_get({"key": key})
                             for _ in range(8))),
            timeout=2.0)
        assert metrics.queries_forwarded == forwarded + 1
        assert metrics.coalesced_queries == coalesced + 7
        for reply in replies:
            assert reply["ok"] and reply["hit"] is False, reply
            assert [e["sequence"] for e in reply["entries"]] == [1]
        assert reader._get_waiters == {}

    _run_cluster(2, scenario)


def test_swallowed_query_frame_is_answered_by_the_repost():
    async def scenario(nodes):
        authority, reader = nodes
        key, = _keys_owned_by(authority, "wake/lost", 1)
        await _give_birth(authority, [key])
        send_wire = reader.send_wire
        swallowed = []

        def lossy(src, dst, message, direct):
            if message.kind == "query" and not swallowed:
                swallowed.append(message)
                return True
            return send_wire(src, dst, message, direct)

        reader.send_wire = lossy
        posted = reader.metrics.queries_posted
        began = time.monotonic()
        reply = await reader._client_get({"key": key})
        elapsed = time.monotonic() - began
        assert reply["ok"] and reply["hit"] is False, reply
        assert len(swallowed) == 1
        assert reader.metrics.queries_posted == posted + 2
        assert 1.0 <= elapsed < 1.5

    # The re-post only travels once the first query's PFU has timed out.
    _run_cluster(2, scenario, pfu_timeout=0.5)


@pytest.mark.parametrize("timeout", [
    float("nan"), float("inf"), -1, "soon", True, [1.0],
])
def test_get_rejects_a_timeout_that_is_no_deadline(timeout):
    async def scenario(nodes):
        node = nodes[0]
        posted = node.metrics.queries_posted
        # At the door: NaN and Infinity are valid JSON to json.loads, and
        # unchecked they pin the handler for the life of the node.
        reply = await asyncio.wait_for(
            _socket_request(node, {"t": "get", "key": "wake/bad",
                                   "timeout": timeout}),
            timeout=2.0)
        assert reply["t"] == "error"
        assert "timeout" in reply["error"]
        assert node.metrics.queries_posted == posted
        assert node._get_waiters == {}

    _run_cluster(1, scenario)


@pytest.mark.parametrize("lifetime", [-1, 0, float("nan"), float("inf"), True])
def test_put_rejects_a_lifetime_that_is_no_lifetime(lifetime):
    async def scenario(nodes):
        node = nodes[0]
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: reported.append(context))
        index = node.node.authority_index
        reply = await _socket_request(
            node, {"t": "put", "key": "put/bad", "replica_id": "r1",
                   "lifetime": lifetime})
        await asyncio.sleep(0.05)  # where a direct message would land
        assert reply["t"] == "error"
        assert "lifetime" in reply["error"]
        assert index.entry_count() == 0 and not index.owns("put/bad")
        assert reported == []

    _run_cluster(1, scenario)


def test_client_buffers_pipelined_response_frames(monkeypatch):
    # Two responses landing in one recv() must serve two requests in
    # order — the decoded leftover used to be dropped on the floor.
    from repro.net import client as client_mod
    from repro.net.client import NodeClient

    replies = [{"t": "ok", "n": 1}, {"t": "ok", "n": 2}]
    blob = b"".join(encode_frame(reply) for reply in replies)

    class _FakeSocket:
        def __init__(self):
            self._chunks = [blob, b""]

        def sendall(self, data):
            pass

        def recv(self, _n):
            return self._chunks.pop(0)

        def close(self):
            pass

    monkeypatch.setattr(
        client_mod.socket, "create_connection",
        lambda *args, **kwargs: _FakeSocket(),
    )
    client = NodeClient("127.0.0.1:1")
    assert client.request({"t": "a"})["n"] == 1
    assert client.request({"t": "b"})["n"] == 2
