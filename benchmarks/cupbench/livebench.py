"""The three live workloads: a load generator against a four-node cluster.

The cluster (``cluster.py``) is four production ``LiveNode``s on one
asyncio loop over loopback TCP.  This module is everything on the client
side: it rebuilds the daemons' Chord ring from their node ids, picks every
key by its authority and route so the path shape does not depend on which
ephemeral ports the boot drew, preloads, drives the timed phases through
blocking ``NodeClient`` connections (at most two while timing), and checks
every reply.

Closed loop: a connection sends its next request when the previous reply
arrived; reported as a rate.  Open loop: requests fall due on a Poisson
schedule whatever the cluster does, and each is timed from when it was
*due*, so a stall is charged to every request it delayed; reported as
latency, with how late the generator itself ran.
"""

from __future__ import annotations

import collections
import os
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.net.client import NodeClient
from repro.overlay.chord import ChordOverlay
from repro.workload import PoissonArrivals, ZipfKeys

import spans
from cluster import ChildCluster, ThreadCluster
from common import (
    ROOT, SRC, GateError, Result, calibration_ns_per_iter, ratio,
)
from stats import percentile, windowed_latency, windowed_rate

#: State dirs of the durable cluster live here while a run lasts: inside
#: the checkout (the only place a run may write), ignored by git, removed
#: when the run ends.
SCRATCH = os.path.join(ROOT, ".cupbench_scratch")

#: Open-loop rates, a fifth to a quarter of what the loop can carry: the
#: latency of an unloaded system plus whatever stalls it.
READ_RATE = 2000.0   # gets/s
WRITE_RATE = 200.0   # put-then-visible operations/s
ZIPF_S = 0.8
#: With 2,000 resident keys a snapshot stalls the loop for ~25 ms.  Once a
#: second per node, a tenth of the loop's time goes to snapshots: every
#: window of the open-loop phase holds about three of them, so its p99 is
#: what one snapshot costs a request that arrives behind it.
SNAPSHOT_INTERVAL = 1.0
#: A ballast quota is filled by rejection sampling over key names, so a
#: node that owns almost none of the ring would take minutes: the durable
#: cluster replaces a node (new port, new place on the ring) until every
#: node owns at least this share.
MIN_BALLAST_SHARE = 0.02
PROBE_KEYS = 2000
OP_TIMEOUT = 5.0
SETUP_CONNECTIONS = 16


class Sizes(NamedTuple):
    hot_keys: int
    ballast_per_node: int
    write_keys: int
    miss_keys: int


FULL = Sizes(hot_keys=256, ballast_per_node=2000, write_keys=64,
             miss_keys=4000)
SMOKE = Sizes(hot_keys=32, ballast_per_node=100, write_keys=8, miss_keys=120)


def _replica(key: str) -> str:
    return "replica-of/" + key


# ----------------------------------------------------------------------
# The cluster as the generator sees it
# ----------------------------------------------------------------------


class Roles(NamedTuple):
    """Who plays what, fixed by route so every boot gives the same shape.

    On a Chord ring the last hop to a key is always from its authority's
    predecessor, so exactly one node (``near``) is one hop from the
    authority; ``far`` is a node whose route is ``far -> near ->
    authority``, and ``spare`` the fourth node.
    """

    authority: str
    near: str
    far: str
    spare: str
    routes: Dict[str, tuple]


class Session:
    """A booted cluster, the rebuilt ring, the roles, and one control
    connection per node (set-up, gates and counters; never used while
    timing)."""

    def __init__(self, cluster_cls, state_root: Optional[str], config: dict,
                 min_arc: float):
        self.cluster = cluster_cls(SRC, state_root, config, min_arc)
        self.control: Dict[str, NodeClient] = {}
        self._timed: List[NodeClient] = []
        try:
            self.node_ids: List[str] = list(self.cluster.node_ids)
            for node_id in self.node_ids:
                self.control[node_id] = NodeClient(node_id)
            self._await_mesh()
            self.ring = ChordOverlay.build(self.node_ids, bits=32)
            self.roles = self._cast()
        except BaseException:
            self.close()
            raise

    def _cast(self) -> Roles:
        """Roles on this boot's ring: the authority is the node owning the
        largest arc that offers the shape, because its keys are the
        cheapest to find by name."""
        owned = collections.defaultdict(list)
        for index in range(PROBE_KEYS):
            key = f"probe/{index}"
            owned[self.ring.authority(key)].append(key)
        for authority in sorted(self.node_ids, key=lambda n: -len(owned[n])):
            routes = {
                node: collections.Counter(
                    tuple(self.ring.route(node, key))
                    for key in owned[authority]
                ).most_common(1)[0][0]
                for node in self.node_ids if node != authority
            }
            for far, route in sorted(routes.items()):
                if len(route) == 3 and routes[route[1]] == (route[1], authority):
                    spare = next(n for n in routes if n not in route)
                    return Roles(authority, route[1], far, spare, routes)
        raise RuntimeError(f"no far -> near -> authority route on this ring: "
                           f"{self.node_ids}")

    def _await_mesh(self) -> None:
        deadline = time.monotonic() + 20.0
        want = len(self.node_ids)
        while True:
            infos = [client.info() for client in self.control.values()]
            if all(len(info["members"]) == want
                   and len(info["connections"]) == want - 1
                   for info in infos):
                return
            if time.monotonic() > deadline:
                raise RuntimeError("the cluster never reached a full mesh")
            time.sleep(0.01)

    def connect(self, node_id: str) -> NodeClient:
        """A connection for a timed loop, closed with the session."""
        client = NodeClient(node_id)
        self._timed.append(client)
        return client

    def keys_on_route(self, prefix: str, count: int,
                      readers: List[str]) -> List[str]:
        """Keys of the authority that every reader reaches by its typical
        route, so the path a key travels does not depend on its name."""
        roles = self.roles
        return self.pick_keys(prefix, count, lambda key: (
            self.ring.authority(key) == roles.authority and all(
                tuple(self.ring.route(node, key)) == roles.routes[node]
                for node in readers)))

    def pick_keys(self, prefix: str, count: int,
                  accept: Callable[[str], bool]) -> List[str]:
        """The first ``count`` names ``prefix0, prefix1, …`` accepted."""
        picked: List[str] = []
        for index in range(count * 1000):
            key = f"{prefix}{index}"
            if accept(key):
                picked.append(key)
                if len(picked) == count:
                    return picked
        raise RuntimeError(f"could not find {count} keys named {prefix}*")

    def put_all(self, via: str, keys: List[str]) -> None:
        with NodeClient(via) as client:
            for key in keys:
                reply = client.put(key, _replica(key), address="bench")
                if reply.get("t") != "ok":
                    raise RuntimeError(f"preload put of {key} failed: {reply}")

    def fetch_all(self, at: str, keys: List[str]) -> None:
        """First get of every key at ``at``: caches it and subscribes.

        Each first get waits out the daemon's 20 ms poll, so set-up spreads
        them over :data:`SETUP_CONNECTIONS` connections.
        """
        def fetch(chunk: List[str]) -> None:
            with NodeClient(at) as client:
                for key in chunk:
                    reply = client.get(key, timeout=OP_TIMEOUT)
                    if not reply.get("ok"):
                        raise RuntimeError(
                            f"preload get of {key} failed: {reply}")

        _in_threads([
            (lambda chunk=keys[i::SETUP_CONNECTIONS]: fetch(chunk))
            for i in range(SETUP_CONNECTIONS)
        ])

    def sequences(self, at: str, keys: List[str]) -> Dict[str, int]:
        out = {}
        client = self.control[at]
        for key in keys:
            reply = client.get(key, timeout=OP_TIMEOUT)
            seq = _sequence(reply, key)
            if seq is None:
                raise GateError(f"final get of {key} at {at} failed: {reply}")
            out[key] = seq
        return out

    def counters(self) -> dict:
        """Per-process readings plus the sum of every node's ``info``."""
        out = dict(self.cluster.stats())
        out.update(overflows=0, dropped=0)
        for client in self.control.values():
            info = client.info()
            out["overflows"] += info["livenode"]["outbox_overflows"]
            out["dropped"] += info["transport"]["dropped"]
        return out

    def gate(self) -> None:
        """Quiesce, then: no frame dropped for a full outbox, and every
        node's invariant audit clean."""
        time.sleep(0.3)
        for node_id, client in self.control.items():
            overflows = client.info()["livenode"]["outbox_overflows"]
            if overflows:
                raise GateError(
                    f"{node_id} dropped {overflows} frames on a full outbox")
            audit = client.audit()
            if not audit.get("ok"):
                raise GateError(
                    f"audit at {node_id}: {audit.get('violations')}")

    def close(self) -> None:
        for client in list(self.control.values()) + self._timed:
            client.close()
        self.cluster.close()


def _in_threads(jobs: List[Callable[[], None]]) -> None:
    errors: List[BaseException] = []

    def guarded(job):
        try:
            job()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(job,)) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _sequence(reply: dict, key: str) -> Optional[int]:
    """The sequence a get returned, or ``None`` for a refused, errored or
    wrong-replica reply."""
    if reply.get("t") != "result" or not reply.get("ok"):
        return None
    entries = reply.get("entries") or ()
    if len(entries) != 1 or entries[0].get("replica_id") != _replica(key):
        return None
    return entries[0]["sequence"]


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------


class _Op(NamedTuple):
    at: float        # completion, seconds from the phase's start
    latency: float   # seconds; from the due time in an open loop
    late: float      # seconds the generator itself delayed the send
    ok: bool


class _Phase:
    """One timed phase: its operations and the generator's own cost."""

    def __init__(self, span: float):
        self.span = span
        self.ops: List[_Op] = []
        self.generator_cpu = 0.0

    def rate(self) -> float:
        return windowed_rate([op.at for op in self.ops if op.ok], self.span)

    def latency_ms(self):
        p50, tail, q = windowed_latency(
            [(op.at, op.latency) for op in self.ops if op.ok], self.span)
        return p50 * 1e3, tail * 1e3, q

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


def _closed_loop(span: float, workers: List[Callable], warmup: int) -> _Phase:
    """One thread and one connection per worker, each sending as fast as
    replies come back.

    A worker is a factory that opens its connections and returns the
    operation; the operation returns whether it succeeded, or ``None`` when
    it has nothing left to send.  ``warmup`` operations per worker are
    discarded.
    """
    phase = _Phase(span)
    ready = threading.Barrier(len(workers) + 1)
    begun: List[float] = []
    errors: List[BaseException] = []
    lock = threading.Lock()

    def work(make_op) -> None:
        try:
            op = make_op()
            for _ in range(warmup):
                op()
            ready.wait()
            ready.wait()  # the main thread has stamped the start
            start = begun[0]
            cpu = time.thread_time()
            mine: List[_Op] = []
            while True:
                sent = time.perf_counter()
                if sent - start >= span:
                    break
                ok = op()
                if ok is None:
                    break
                done = time.perf_counter()
                mine.append(_Op(done - start, done - sent, 0.0, ok))
            with lock:
                phase.ops.extend(mine)
                phase.generator_cpu += time.thread_time() - cpu
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
            ready.abort()

    threads = [threading.Thread(target=work, args=(w,)) for w in workers]
    for thread in threads:
        thread.start()
    try:
        ready.wait()
        begun.append(time.perf_counter())
        ready.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if errors:
        raise next(e for e in errors
                   if not isinstance(e, threading.BrokenBarrierError))
    # An operation in flight at the deadline completes after it, and
    # workers with nothing left stop before it: the rate is taken over
    # the span the last completion closes.
    phase.span = max((op.at for op in phase.ops), default=span)
    return phase


def _open_loop(span: float, rate: float, rng, op: Callable[[], bool],
               warmup: int) -> _Phase:
    """Poisson arrivals at ``rate`` from this thread; each operation is
    timed from its due time."""
    for _ in range(warmup):
        op()
    phase = _Phase(span)
    arrivals = PoissonArrivals(rate, rng)
    clock = time.perf_counter
    cpu = time.thread_time()
    start = clock()
    due = done = start
    while True:
        due += arrivals.next_gap()
        if due - start >= span:
            break
        while True:
            # Sleep overshoots by up to half a millisecond here, several
            # times a local hit: sleep only to within a millisecond of the
            # due time and spin the rest.  The spin shares the cluster's
            # processor, which costs the cluster at most that millisecond
            # per request when it has other work (a snapshot).
            wait = due - clock()
            if wait <= 0:
                break
            if wait > 0.001:
                time.sleep(wait - 0.001)
        # The connection is free from ``done`` on: a send later than both
        # that and the due time is the generator's own doing.
        free = max(due, done)
        sent = clock()
        ok = op()
        done = clock()
        phase.ops.append(_Op(done - start, done - due, sent - free, ok))
    phase.generator_cpu = time.thread_time() - cpu
    phase.span = max(span, max((o.at for o in phase.ops), default=span))
    return phase


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class _Measured(NamedTuple):
    """What one pass over one cluster measured."""

    setup_s: float
    ops_per_s: float
    latency_p50_ms: float
    latency_tail_ms: float
    attempted: int
    failed: int
    late_p99_ms: float
    generator_cpu_share: float
    wall_s: float
    counters: dict
    #: What the wrappers recorded during the timed phases (traced runs).
    spans: object
    notes: List[str]


def _live_read(session: Session, sizes: Sizes, seed: int, seconds: float,
               notes: List[str]):
    authority, reader = session.roles.authority, session.roles.near
    keys = session.keys_on_route(f"s{seed}/hot/", sizes.hot_keys, [reader])
    notes.append(f"authority {authority}, reader {reader} (1 hop), "
                 f"{len(keys)} hot keys, Zipf({ZIPF_S})")
    session.put_all(authority, keys)
    session.fetch_all(reader, keys)
    streams = np.random.SeedSequence(seed).spawn(4)

    def getter(stream):
        def make_op():
            client = session.connect(reader)
            chooser = ZipfKeys(keys, ZIPF_S, np.random.default_rng(stream))
            seen: Dict[str, int] = {}

            def op() -> bool:
                key = chooser.select(0.0)
                reply = client.get(key, timeout=OP_TIMEOUT)
                seq = _sequence(reply, key)
                if seq is None or not reply["hit"] or seq < seen.get(key, 0):
                    return False
                seen[key] = seq
                return True

            return op
        return make_op

    def finish():
        at_authority = session.sequences(authority, keys)
        if session.sequences(reader, keys) != at_authority:
            raise GateError("reader and authority disagree on sequences")

    def phases():
        closed = _closed_loop(seconds * 0.4, [getter(streams[0]),
                                              getter(streams[1])], warmup=300)
        opened = _open_loop(seconds * 0.6, READ_RATE,
                            np.random.default_rng(streams[3]),
                            getter(streams[2])(), warmup=300)
        notes.append(
            f"closed loop, 2 connections, {len(closed.ops)} gets "
            f"(gets_per_s); open loop, Poisson {READ_RATE:g}/s, "
            f"{len(opened.ops)} gets (get_p50_ms, get_p99_ms)")
        return closed, opened

    return phases, finish


def _live_write(session: Session, sizes: Sizes, seed: int, seconds: float,
                notes: List[str]):
    roles = session.roles
    authority, writer, farthest = roles.authority, roles.spare, roles.far
    subscribers = [roles.near, roles.far]
    keys = session.keys_on_route(
        f"s{seed}/write/", sizes.write_keys, subscribers)
    notes.append(
        f"authority {authority}, writer {writer}, subscribers {roles.near} "
        f"(1 hop) and {roles.far} (2 hops, through the first); {len(keys)} "
        f"keys, {sizes.ballast_per_node} ballast keys per node, snapshot "
        f"every {SNAPSHOT_INTERVAL}s")
    ballast = {
        node: session.pick_keys(
            f"s{seed}/ballast/{index}/", sizes.ballast_per_node,
            lambda key, node=node: session.ring.authority(key) == node)
        for index, node in enumerate(session.node_ids)
    }
    _in_threads([
        (lambda node=node: session.put_all(node, ballast[node]))
        for node in session.node_ids
    ])
    session.put_all(writer, keys)
    for node in subscribers:
        session.fetch_all(node, keys)
    #: Puts acknowledged per key; the birth was sequence 1.
    expected = {key: 1 for key in keys}

    def put(client: NodeClient, key: str) -> bool:
        reply = client.put(key, _replica(key), address="bench",
                           event="refresh")
        if reply.get("t") != "ok" or reply.get("authority") != authority:
            return False  # refused, or routed to another node's index
        expected[key] += 1
        return True

    def putter(mine: List[str]):
        def make_op():
            client = session.connect(writer)
            turn = [0]

            def op() -> bool:
                key = mine[turn[0] % len(mine)]
                turn[0] += 1
                return put(client, key)

            return op
        return make_op

    def await_visible(client: NodeClient, key: str,
                      seen: Dict[str, int]) -> bool:
        want = expected[key]
        deadline = time.perf_counter() + OP_TIMEOUT
        while True:
            seq = _sequence(client.get(key, timeout=OP_TIMEOUT), key)
            if seq is None or seq < seen.get(key, 0):
                return False
            seen[key] = seq
            if seq >= want:
                return True
            if time.perf_counter() > deadline:
                return False

    def put_then_visible():
        to_writer = session.connect(writer)
        to_farthest = session.connect(farthest)
        seen: Dict[str, int] = {}
        turn = [0]

        def op() -> bool:
            key = keys[turn[0] % len(keys)]
            turn[0] += 1
            return (put(to_writer, key)
                    and await_visible(to_farthest, key, seen))

        return op

    def finish():
        for node in [authority] + subscribers:
            held = session.sequences(node, keys)
            behind = {key: (held[key], expected[key]) for key in keys
                      if held[key] != expected[key]}
            if behind:
                raise GateError(
                    f"{node} does not hold the last acknowledged sequences "
                    f"(held, acknowledged): {behind}")

    def phases():
        closed = _closed_loop(
            seconds * 0.4, [putter(keys[0::2]), putter(keys[1::2])],
            warmup=100)
        # The clock of the closed phase stops when the last acknowledged
        # sequence of every key is visible at the farthest subscriber.
        drained = time.perf_counter()
        with NodeClient(farthest) as client:
            seen: Dict[str, int] = {}
            if not all(await_visible(client, key, seen) for key in keys):
                raise GateError("acknowledged puts never became visible")
        closed.span += time.perf_counter() - drained
        opened = _open_loop(seconds * 0.6, WRITE_RATE,
                            np.random.default_rng([seed, 1]),
                            put_then_visible(), warmup=50)
        notes.append(
            f"closed loop, 2 connections, {len(closed.ops)} refresh puts, "
            f"all delivered (puts_per_s); open loop, Poisson "
            f"{WRITE_RATE:g}/s, {len(opened.ops)} put-then-visible "
            "(visible_p50_ms, visible_p99_ms)")
        return closed, opened

    return phases, finish


def _live_miss(session: Session, sizes: Sizes, seed: int, seconds: float,
               notes: List[str]):
    authority, reader = session.roles.authority, session.roles.near
    keys = session.keys_on_route(f"s{seed}/cold/", sizes.miss_keys, [reader])
    notes.append(f"authority {authority}, reader {reader} (1 hop), "
                 f"{len(keys)} keys born and never requested")
    _in_threads([
        (lambda chunk=keys[i::2]: session.put_all(authority, chunk))
        for i in range(2)
    ])
    used: List[str] = []

    def misser(mine: List[str]):
        def make_op():
            client = session.connect(reader)
            remaining = iter(mine)

            def op() -> Optional[bool]:
                key = next(remaining, None)
                if key is None:
                    return None  # a second get would time a hit as a miss
                used.append(key)
                reply = client.get(key, timeout=OP_TIMEOUT)
                return _sequence(reply, key) == 1 and reply["hit"] is False

            return op
        return make_op

    def finish():
        sample = used[:50]
        if session.sequences(reader, sample) != \
                session.sequences(authority, sample):
            raise GateError("reader and authority disagree after the misses")

    def phases():
        closed = _closed_loop(
            seconds, [misser(keys[0::2]), misser(keys[1::2])], warmup=5)
        notes.append(
            f"closed loop, 2 connections, {len(closed.ops)} first gets "
            "(miss_p50_ms, miss_p99_ms)")
        return closed, closed

    return phases, finish


#: ``LiveNodeConfig`` fields every cluster sets apart from the daemon's
#: defaults.  Chord neighbour sets are not symmetric: a node can monitor a
#: finger that does not monitor it back, hears nothing from it unless the
#: protocol happens to send that way, suspects it after ``keepalive_period
#: * keepalive_misses`` = 6 s and evicts it 6 s later.  In about one boot
#: in fifteen that pair is the writer and the authority, and from the
#: twelfth second the writer routes puts to the wrong node.  A verdict
#: needs 45 s with this period, and no run lasts that long.
_EVERY_CLUSTER = {"keepalive_period": 15.0}

#: Per workload: how it prepares, and what its cluster adds to the above
#: (``None``: stateless nodes under the default second-chance policy).
_WORKLOADS = {
    "live_read": (_live_read, None),
    # Durable nodes, and the paper's all-out policy: every acknowledged put
    # must reach every subscriber.  Under second-chance a subscriber that
    # does not query between two refreshes is cut off, which is the
    # protocol working and not a lost update.
    "live_write": (_live_write, {"policy": "all-out",
                                 "snapshot_interval": SNAPSHOT_INTERVAL}),
    "live_miss": (_live_miss, None),
}


def _measure(workload: str, cluster_cls, sizes: Sizes, seed: int,
             seconds: float, tracer=None) -> _Measured:
    prepare, durable = _WORKLOADS[workload]
    notes: List[str] = []
    state_root = None
    if durable:
        os.makedirs(SCRATCH, exist_ok=True)
        state_root = tempfile.mkdtemp(prefix="state-", dir=SCRATCH)
    try:
        began = time.perf_counter()
        session = Session(cluster_cls, state_root,
                          dict(_EVERY_CLUSTER, **(durable or {})),
                          MIN_BALLAST_SHARE if durable else 0.0)
        try:
            phases, finish = prepare(session, sizes, seed, seconds, notes)
            setup_s = time.perf_counter() - began
            before = session.cluster.stats()
            if tracer is not None:
                tracer.reset()
            timed = time.perf_counter()
            rate_phase, latency_phase = phases()
            wall_s = time.perf_counter() - timed
            recorded = None if tracer is None else tracer.merged()
            cpu_s = session.cluster.stats()["cpu_s"] - before["cpu_s"]
            finish()
            session.gate()
            counters = session.counters()
            counters["cpu_s"] = cpu_s
        finally:
            session.close()
    finally:
        if state_root is not None:
            shutil.rmtree(state_root, ignore_errors=True)
            try:
                os.rmdir(SCRATCH)
            except OSError:
                pass  # another run is using it
    both = [rate_phase]
    if latency_phase is not rate_phase:
        both.append(latency_phase)
    p50, tail, q = latency_phase.latency_ms()
    late = [op.late for op in latency_phase.ops]
    notes.append(
        f"latency tail is p{q * 100:.0f}; generator sent "
        f"{percentile(late, 0.99) * 1e3:.3f} ms late at p99")
    return _Measured(
        setup_s=setup_s,
        ops_per_s=rate_phase.rate(),
        latency_p50_ms=p50,
        latency_tail_ms=tail,
        attempted=sum(len(p.ops) for p in both),
        failed=sum(p.failed for p in both),
        late_p99_ms=percentile(late, 0.99) * 1e3,
        generator_cpu_share=sum(p.generator_cpu for p in both) / wall_s,
        wall_s=wall_s,
        counters=counters,
        spans=recorded,
        notes=notes,
    )


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> Result:
    sizes = SMOKE if smoke else FULL
    # One processor for the generator and the cluster alike (the child
    # inherits it).  On two, a request that finds the cluster's processor
    # idle pays a wake-up several times the 0.1 ms a local hit costs, in
    # some runs and not in others, depending on where the scheduler put
    # the two; on one, whoever is not waiting runs, and a run repeats.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
    if not trace:
        measured = _measure(workload, ChildCluster, sizes, seed, seconds)
        notes = ["cluster: 4 LiveNodes on one loop in a child process, "
                 "loopback TCP (not a link)"] + measured.notes
        metrics = {
            "setup_s": measured.setup_s,
            "ops_per_s": measured.ops_per_s,
            "latency_p50_ms": measured.latency_p50_ms,
            "latency_tail_ms": measured.latency_tail_ms,
            "peak_rss_mb": measured.counters["peak_rss_mb"],
        }
        return Result(measured.attempted, measured.failed, metrics, notes)

    calibration = calibration_ns_per_iter()
    plain = _measure(workload, ThreadCluster, sizes, seed, seconds / 4)
    tracer = spans.Tracer()
    tracer.install(spans.LIVE_TARGETS)
    traced = _measure(workload, ThreadCluster, sizes, seed, seconds * 3 / 4,
                      tracer)
    notes = ["cluster: 4 LiveNodes on one loop in a thread of this process "
             "(per-layer numbers only)"] + traced.notes
    notes.append(f"plain {plain.ops_per_s:.0f} and traced "
                 f"{traced.ops_per_s:.0f} operations/s")
    metrics = _layer_metrics(traced.spans, traced)
    metrics["trace.overhead_share"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    metrics["host.calibration_ns_per_iter"] = calibration
    return Result(plain.attempted + traced.attempted,
                  plain.failed + traced.failed, metrics, notes)


def _layer_metrics(totals, measured: _Measured) -> dict:
    def calls(*names: str) -> int:
        return sum(totals.calls[name] for name in names)

    def mean_us(*names: str) -> float:
        count = calls(*names)
        if not count:
            return 0.0
        return sum(totals.total_ns[name] for name in names) / count / 1e3

    encoded = calls("net.wire:encode_frame")
    decoded = totals.sums["decoded_frames"]
    transport_calls = calls(
        "net.transport:LiveTransport.send",
        "net.transport:LiveTransport.send_fanout",
        "net.transport:LiveTransport.send_direct",
        "net.transport:LiveTransport.deliver_wire")
    posted = calls("core.node:CupNode.post_local_query")
    saves = totals.samples["persistence.nodestore:NodeStore.save"]
    counters = measured.counters
    return {
        "net.wire.frames_encoded": encoded,
        "net.wire.frames_decoded": decoded,
        "net.wire.bytes_per_frame": ratio(
            totals.sums["encoded_bytes"], encoded),
        "net.wire.encode_us": mean_us("net.wire:encode_frame"),
        "net.wire.decode_us": ratio(
            totals.total_ns["net.wire:FrameDecoder.feed"], decoded) / 1e3,
        "net.transport.sends": (
            calls("net.transport:LiveTransport.send",
                  "net.transport:LiveTransport.send_direct")
            + totals.sums["fanout_width"]),
        "net.transport.received": calls(
            "net.transport:LiveTransport.deliver_wire"),
        "net.transport.dropped": counters["dropped"],
        "net.transport.self_us": ratio(
            totals.self_ns["net.transport"], transport_calls) / 1e3,
        "net.daemon.client_frames": calls(
            "net.daemon:LiveNode._client_get",
            "net.daemon:LiveNode._client_put"),
        "net.daemon.peer_frames": calls(
            "net.daemon:LiveNode._process_peer_frame"),
        "net.daemon.client_get_us": mean_us(
            "net.daemon:LiveNode._client_get"),
        "net.daemon.client_put_us": mean_us(
            "net.daemon:LiveNode._client_put"),
        "net.daemon.peer_frame_us": mean_us(
            "net.daemon:LiveNode._process_peer_frame"),
        "net.daemon.outbox_overflows": counters["overflows"],
        "net.daemon.cpu_share": counters["cpu_s"] / measured.wall_s,
        "net.client.requests": calls("net.client:NodeClient.request"),
        "net.client.request_us": mean_us("net.client:NodeClient.request"),
        "core.node.receives": calls("core.node:CupNode.receive"),
        "core.node.local_queries": posted,
        "core.node.local_hit_ratio": ratio(totals.sums["local_hits"], posted),
        "core.node.receive_us": mean_us("core.node:CupNode.receive"),
        "persistence.nodestore.saves": len(saves),
        "persistence.nodestore.save_ms_p50": (
            percentile(saves, 0.5) / 1e6 if saves else 0.0),
        "persistence.nodestore.save_ms_max": max(saves, default=0) / 1e6,
        "persistence.nodestore.bytes": ratio(
            totals.sums["saved_bytes"], len(saves)),
        # Share of the timed phases the one loop spent inside
        # NodeStore.save, serving nobody.
        "persistence.nodestore.loop_stall_share": ratio(
            sum(saves) / 1e9, measured.wall_s),
        "generator.late_p99_ms": measured.late_p99_ms,
        "generator.cpu_share": measured.generator_cpu_share,
    }
