"""Network assembly: configuration and full-system wiring.

:class:`CupConfig` captures every input of the paper's simulator (§3.2):
the number of nodes in the overlay, the number of keys owned per node,
the distribution of queries for keys, the query inter-arrival
distribution, the number of replicas per key, and the lifetime of
replicas — plus the CUP-specific knobs (mode, cut-off policy, capacity,
replica-independent cut-off).

:class:`CupNetwork` builds the whole system from a config — simulator,
transport, overlay, one :class:`~repro.core.node.CupNode` per member,
the replica population and the query workload — and provides the churn
operations of §2.9 (node joins with index handover, graceful and
ungraceful departures) and the capacity fault hooks of §3.7.

Protocol modes
--------------
``mode="cup"``
    Full CUP: persistent interest bits, maintenance update propagation,
    cut-off policy in force.
``mode="standard"``
    The baseline: standard caching with expiration times.  Queries are
    forwarded individually over per-query open connections (no
    coalescing), responses retrace the query path and populate the path
    caches, and no maintenance update ever propagates; total cost equals
    miss cost, exactly as the paper's push-level-0 equivalence.
``mode="standard-coalescing"``
    Ablation: standard caching plus CUP's query-coalescing machinery
    (Pending-First-Update flags and interest-bit response fan-out) but
    still no maintenance updates.  Isolates how much of CUP's win comes
    from coalescing alone.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Dict, Iterable, List, Optional, Union

from repro.core.channels import PRIORITY_PROFILES, CapacityConfig
from repro.core.node import CupNode
from repro.core.policies import CutoffPolicy, make_policy
from repro.core.recovery import RecoveryConfig
from repro.metrics.collector import MetricsCollector, MetricsSummary
from repro.overlay.base import NodeId, Overlay
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.pastry import PastryOverlay
from repro.replicas.replica import ReplicaSet
from repro.sim.engine import Simulator
from repro.sim.network import Transport
from repro.sim.random import BufferedUniforms, RandomStreams
from repro.sim.trace import Tracer
from repro.workload.arrivals import PoissonArrivals
from repro.workload.generator import QueryWorkload, uniform_node_selector
from repro.workload.keyspace import KeySelector, UniformKeys, ZipfKeys


@dataclasses.dataclass
class CupConfig:
    """All simulation inputs; defaults mirror the paper's setup (§3.2)."""

    # --- topology -----------------------------------------------------
    num_nodes: int = 64
    overlay_type: str = "can"          # "can" | "chord" | "pastry"
    link_delay: float = 0.05           # one-way seconds per overlay hop
    link_delay_jitter: float = 0.0     # +/- uniform per-link jitter (CAN)

    # --- protocol -----------------------------------------------------
    mode: str = "cup"      # "cup" | "standard" | "standard-coalescing"
    policy: Union[CutoffPolicy, str] = "second-chance"
    replica_independent_cutoff: bool = True
    capacity_fraction: float = 1.0     # §3.7 fractional capacity
    capacity_rate: Optional[float] = None  # §2.8 rate pump (updates/s)
    pfu_timeout: float = 30.0
    track_justification: bool = True
    # §3.6 authority-side overhead-reduction techniques:
    refresh_aggregation_window: Optional[float] = None
    refresh_sample_fraction: float = 1.0
    # §2.8 update-channel reordering profile under limited capacity:
    # "latency" (first-time > delete > refresh > append) or
    # "flash-crowd" (appends promoted to spread load across replicas).
    priority_profile: str = "latency"
    # Unreliable-transport survival layer (recovery).  The default True
    # assumes a reliable transport (no fault injection) and keeps the
    # run byte-identical to historical golden pins: nodes carry no
    # recovery state at all.  Setting False equips every CUP-mode node
    # with sequence stamping, gap detection + NACK/backoff recovery, and
    # pull-on-miss degradation, timed by the RecoveryConfig defaults
    # (see repro.core.recovery).
    reliable_transport: bool = True

    # --- content ------------------------------------------------------
    keys_per_node: float = 1.0
    total_keys: Optional[int] = None   # overrides keys_per_node when set
    replicas_per_key: int = 1
    entry_lifetime: float = 300.0      # the paper's replica lifetime

    # --- workload -----------------------------------------------------
    query_rate: float = 1.0            # aggregate λ, queries/second
    key_distribution: str = "uniform"  # "uniform" | "zipf"
    zipf_s: float = 0.8
    query_start: float = 600.0         # warm-up before the query phase
    query_duration: float = 3000.0     # the paper's querying time
    drain: float = 600.0               # post-query settling time

    # --- housekeeping ---------------------------------------------------
    seed: int = 42
    gc_interval: Optional[float] = 300.0
    failure_sweep_interval: Optional[float] = None
    trace: bool = False

    @property
    def query_end(self) -> float:
        return self.query_start + self.query_duration

    @property
    def sim_end(self) -> float:
        return self.query_end + self.drain

    def resolved_total_keys(self) -> int:
        if self.total_keys is not None:
            if self.total_keys < 1:
                raise ValueError("total_keys must be >= 1")
            return self.total_keys
        return max(1, int(round(self.num_nodes * self.keys_per_node)))

    def resolved_policy(self) -> CutoffPolicy:
        if isinstance(self.policy, CutoffPolicy):
            return self.policy
        return make_policy(self.policy)

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.mode not in ("cup", "standard", "standard-coalescing"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.overlay_type not in ("can", "chord", "pastry"):
            raise ValueError(f"unknown overlay_type: {self.overlay_type!r}")
        if self.key_distribution not in ("uniform", "zipf"):
            raise ValueError(
                f"unknown key_distribution: {self.key_distribution!r}"
            )
        if self.entry_lifetime <= 0:
            raise ValueError("entry_lifetime must be positive")
        if self.query_rate <= 0:
            raise ValueError("query_rate must be positive")
        if not 0.0 <= self.capacity_fraction <= 1.0:
            raise ValueError("capacity_fraction must be in [0, 1]")
        if (
            self.refresh_aggregation_window is not None
            and self.refresh_aggregation_window <= 0
        ):
            raise ValueError(
                "refresh_aggregation_window must be positive or None"
            )
        if not 0.0 < self.refresh_sample_fraction <= 1.0:
            raise ValueError("refresh_sample_fraction must be in (0, 1]")
        if self.priority_profile not in PRIORITY_PROFILES:
            raise ValueError(
                f"unknown priority_profile: {self.priority_profile!r}; "
                f"choose from {sorted(PRIORITY_PROFILES)}"
            )

    def variant(self, **overrides) -> "CupConfig":
        """A copy with fields replaced (workload seeds stay aligned)."""
        return dataclasses.replace(self, **overrides)


def build_overlay(config: CupConfig) -> Overlay:
    """Construct the overlay topology ``config`` describes.

    A pure function of the config: the only randomness (incremental CAN
    construction for non-power-of-two sizes) comes from the dedicated
    ``topology`` stream derived from ``config.seed``, so repeated builds
    are identical — which is what lets the sweep executor's topology
    snapshot cache (:mod:`repro.experiments.topology`) share one built
    overlay across cells.
    """
    if config.overlay_type == "can":
        n = config.num_nodes
        if n & (n - 1) == 0:
            return CanOverlay.perfect_grid(n)
        overlay = CanOverlay()
        rng = RandomStreams(config.seed).get("topology")
        for i in range(n):
            point = (
                tuple(float(x) for x in rng.random(overlay.dims))
                if i else None
            )
            overlay.join(i, point=point)
        return overlay
    if config.overlay_type == "pastry":
        return PastryOverlay.build(range(config.num_nodes))
    return ChordOverlay.build(range(config.num_nodes))


class CupNetwork:
    """A fully wired CUP (or standard-caching) deployment.

    Construction builds the overlay and nodes and schedules replica
    births; :meth:`run` attaches the configured workload and drives the
    simulation to ``config.sim_end``.  Lower-level entry points
    (:meth:`post_query`, :meth:`run_until`) support tests, examples and
    custom experiments.
    """

    def __init__(self, config: CupConfig, topology: Optional[Overlay] = None):
        config.validate()
        self.config = config
        self.policy = config.resolved_policy()
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.tracer = Tracer(enabled=config.trace)
        self.transport = Transport(self.sim, default_delay=config.link_delay)
        self.metrics = MetricsCollector()
        self.transport.attach_metrics(self.metrics)

        if topology is not None:
            # A prebuilt snapshot (the sweep executor's topology cache):
            # routing is a pure function of membership, so reusing the
            # built overlay — warm routing memos included — changes no
            # result, only skips the rebuild.  Membership must then stay
            # frozen; churn entry points guard on _topology_shared.
            self.overlay = topology
            self._topology_shared = True
            self._overlay_build_seconds = 0.0
            self._fresh_builds = 0
        else:
            build_started = time.perf_counter()
            self.overlay = self._build_overlay()
            # Setup-cost accounting: overlay construction now, lazy
            # per-epoch route-table rebuilds folded in by
            # _refresh_setup_costs() when a summary is drawn.  Wall
            # times stay outside MetricsSummary.
            self._topology_shared = False
            self._overlay_build_seconds = time.perf_counter() - build_started
            self._fresh_builds = 1
        self._tables_at_build = (
            self.overlay.table_build_seconds,
            self.overlay.table_builds,
        )
        self._refresh_setup_costs()
        self.keys = [f"k{i:05d}" for i in range(config.resolved_total_keys())]

        # One buffered view of the shared capacity stream for every node:
        # coin flips (§3.7 fractional capacity, §3.6 refresh sampling) are
        # drawn in blocks, and because all consumers share this wrapper
        # the served sequence is bit-identical to per-call scalar draws.
        self._capacity_rng = BufferedUniforms(self.streams.get("capacity"))
        # One capacity object for every node, joiners included: a fault
        # replaces a node's config (set_capacity), nothing writes to one.
        self._initial_capacity = CapacityConfig(
            fraction=config.capacity_fraction, rate=config.capacity_rate
        )

        # Keep-alive machinery (§2.1): off until enable_keepalive().
        self._keepalive_settings = None
        # Runtime invariant checker: off until attach_invariants().
        self.invariants = None
        # Durable snapshots: off until enable_checkpoints().  The flag
        # below makes run() resumable: a restored network must not
        # re-begin its workload.
        self._checkpoint_path = None
        self._checkpoint_every_events = None
        self._checkpoint_every_seconds = None
        self._workload_begun = False
        #: The compiled ScenarioRuntime driving this run, when any —
        #: registered by Scenario.compile_onto so a restored network
        #: keeps its stressor schedule and narration log.
        self.scenario_runtime = None
        self._crashed: set = set()
        #: (time, reporter, suspect) per completed failure detection.
        self.failure_detections: List[tuple] = []

        self.nodes: Dict[NodeId, CupNode] = {}
        for node_id in self.overlay.node_ids():
            self._create_node(node_id)
        self._member_list: List[NodeId] = list(self.nodes)

        if config.link_delay_jitter > 0:
            self._register_jittered_links()

        self.replicas = ReplicaSet(
            self.sim,
            self.transport,
            self.overlay,
            self.keys,
            replicas_per_key=config.replicas_per_key,
            lifetime=config.entry_lifetime,
            rng=self.streams.get("replicas"),
        )
        self.replicas.schedule_births(at=0.0)

        self.workload: Optional[QueryWorkload] = None
        if config.gc_interval:
            self.sim.schedule(config.gc_interval, self._gc_tick)
        if config.failure_sweep_interval:
            self.sim.schedule(
                config.failure_sweep_interval, self._failure_sweep_tick
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_overlay(self) -> Overlay:
        return build_overlay(self.config)

    def _create_node(self, node_id: NodeId) -> CupNode:
        config = self.config
        node = CupNode(
            node_id=node_id,
            sim=self.sim,
            transport=self.transport,
            overlay=self.overlay,
            policy=self.policy,
            metrics=self.metrics,
            persistent_interest=(config.mode == "cup"),
            coalesce=(config.mode != "standard"),
            replica_independent_cutoff=config.replica_independent_cutoff,
            capacity=self._initial_capacity,
            rng=self._capacity_rng,
            pfu_timeout=config.pfu_timeout,
            track_justification=config.track_justification,
            refresh_aggregation_window=config.refresh_aggregation_window,
            refresh_sample_fraction=config.refresh_sample_fraction,
            channel_priorities=PRIORITY_PROFILES[config.priority_profile],
            # Standard caching routes responses over recorded query
            # paths (route is not None), which the sequence layer
            # exempts; only CUP-style propagation gets recovery state.
            recovery_config=(
                RecoveryConfig()
                if not config.reliable_transport and config.mode != "standard"
                else None
            ),
        )
        self.nodes[node_id] = node
        self.transport.register(node_id, node)
        if self.invariants is not None:
            node.invariant_probe = self.invariants
        return node

    def _register_jittered_links(self) -> None:
        if not isinstance(self.overlay, CanOverlay):
            return
        rng = self.streams.get("link-delays")
        base = self.config.link_delay
        jitter = self.config.link_delay_jitter
        seen = set()
        for node_id in self.overlay.node_ids():
            for neighbor in self.overlay.neighbors(node_id):
                pair = (node_id, neighbor) if str(node_id) < str(neighbor) \
                    else (neighbor, node_id)
                if pair in seen:
                    continue
                seen.add(pair)
                delay = max(1e-4, base + float(rng.uniform(-jitter, jitter)))
                self.transport.add_link(pair[0], pair[1], delay)

    # ------------------------------------------------------------------
    # Periodic housekeeping
    # ------------------------------------------------------------------

    def _gc_tick(self) -> None:
        # One sweep visits every node; at large N the per-node constant
        # dominates the tick, so nodes with no cached key state (common
        # in wide networks with few hot keys) are skipped without the
        # two call frames a full node.gc() would cost.
        now = self.sim.now
        for node in self.nodes.values():
            if node.cache.states:
                node.cache.gc(now)
        if now < self.config.sim_end:
            self.sim.schedule(self.config.gc_interval, self._gc_tick)

    def _failure_sweep_tick(self) -> None:
        for node in self.nodes.values():
            node.sweep_local_index()
        if self.sim.now < self.config.sim_end:
            self.sim.schedule(
                self.config.failure_sweep_interval, self._failure_sweep_tick
            )

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------

    def _default_key_selector(self) -> KeySelector:
        rng = self.streams.get("workload-keys")
        if self.config.key_distribution == "zipf":
            return ZipfKeys(self.keys, self.config.zipf_s, rng)
        return UniformKeys(self.keys, rng)

    def attach_workload(
        self,
        rate: Optional[float] = None,
        key_selector: Optional[KeySelector] = None,
    ) -> QueryWorkload:
        """Create (but do not start) the query workload."""
        config = self.config
        arrivals = PoissonArrivals(
            rate if rate is not None else config.query_rate,
            self.streams.get("workload-arrivals"),
        )
        # Read the member list afresh on every draw: churn replaces it.
        # A bound method, not a lambda, so the workload pickles into
        # checkpoints.
        select_node = uniform_node_selector(
            self.live_node_ids, self.streams.get("workload-nodes")
        )

        self.workload = QueryWorkload(
            sim=self.sim,
            arrivals=arrivals,
            key_selector=key_selector or self._default_key_selector(),
            node_selector=select_node,
            post_fn=self.post_query,
            start=config.query_start,
            duration=config.query_duration,
        )
        return self.workload

    def post_query(self, node_id: NodeId, key: str) -> bool:
        """Post one local-client query at a node (workload callback)."""
        return self.nodes[node_id].post_local_query(key)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _refresh_setup_costs(self) -> None:
        """Fold lazy route-table rebuilds into the metrics setup tally.

        Assignment (not accumulation), so drawing several summaries never
        double-counts; the overlay's own accumulators are the source of
        truth for everything after construction.
        """
        base_seconds, base_builds = self._tables_at_build
        self.metrics.routing_build_seconds = (
            self._overlay_build_seconds
            + self.overlay.table_build_seconds - base_seconds
        )
        self.metrics.routing_table_builds = (
            self._fresh_builds
            + self.overlay.table_builds - base_builds
        )

    def run(self, until: Optional[float] = None) -> Optional[MetricsSummary]:
        """Run the configured experiment; return metrics when complete.

        Without ``until`` the simulation is driven to ``config.sim_end``
        (writing periodic checkpoints when configured — see
        :meth:`enable_checkpoints`) and the summary is returned.  With an
        ``until`` before the end, the clock stops there and ``None`` is
        returned; calling :meth:`run` again — on this network or on a
        :meth:`restore`\\ d copy — picks up exactly where it left off,
        because the workload begins only once.
        """
        if self.workload is None:
            self.attach_workload()
        if not self._workload_begun:
            self._workload_begun = True
            self.workload.begin()
        deadline = self.config.sim_end
        partial = until is not None and until < deadline
        if partial:
            deadline = until
        if (
            self._checkpoint_path is not None
            and deadline > self.sim.now
        ):
            self.sim.run_with_checkpoints(
                deadline,
                self._auto_checkpoint,
                every_events=self._checkpoint_every_events,
                every_seconds=self._checkpoint_every_seconds,
            )
        else:
            self.sim.run_until(deadline)
        if partial:
            return None
        self._refresh_setup_costs()
        if self.invariants is not None:
            self.invariants.check_quiescent()
        return self.metrics.summary()

    def run_until(self, deadline: float) -> None:
        """Advance the simulation clock (incremental driving for tests)."""
        self.sim.run_until(deadline)

    # ------------------------------------------------------------------
    # Durable snapshots (checkpoint/resume)
    # ------------------------------------------------------------------

    def enable_checkpoints(
        self,
        path: str,
        every_events: Optional[int] = None,
        every_seconds: Optional[float] = None,
    ) -> None:
        """Arrange periodic durable snapshots during :meth:`run`.

        ``path`` is overwritten atomically on every checkpoint, so it
        always holds the latest restorable state.  Cadence is every
        ``every_events`` processed events and/or every ``every_seconds``
        *simulated* seconds; with neither given, a default event cadence
        applies.  Snapshotting happens between engine chunks — it adds
        no simulation events, so results are byte-identical to an
        uncheckpointed run.
        """
        from repro.persistence.checkpoint import DEFAULT_EVERY_EVENTS

        if every_events is None and every_seconds is None:
            every_events = DEFAULT_EVERY_EVENTS
        self._checkpoint_path = path
        self._checkpoint_every_events = every_events
        self._checkpoint_every_seconds = every_seconds

    def _auto_checkpoint(self) -> None:
        from repro.persistence.checkpoint import save_checkpoint

        save_checkpoint(self, self._checkpoint_path)

    def snapshot(self) -> bytes:
        """Serialize the complete deterministic run state to bytes.

        See :mod:`repro.persistence.checkpoint` for the format and the
        byte-identity guarantee.
        """
        from repro.persistence.checkpoint import snapshot_network

        return snapshot_network(self)

    @classmethod
    def restore(cls, blob: bytes) -> "CupNetwork":
        """Reconstruct a network from :meth:`snapshot` bytes."""
        from repro.persistence.checkpoint import restore_network

        return restore_network(blob)

    # ------------------------------------------------------------------
    # Capacity faults (§3.7)
    # ------------------------------------------------------------------

    def set_node_capacity(self, node_id: NodeId, capacity: CapacityConfig) -> None:
        """Change one node's outgoing update capacity.

        Silently ignores departed nodes: fault schedules select their
        victims ahead of time and legitimately race with churn.
        """
        node = self.nodes.get(node_id)
        if node is not None:
            node.set_capacity(capacity)

    # ------------------------------------------------------------------
    # Runtime invariants
    # ------------------------------------------------------------------

    def attach_invariants(
        self,
        hazards: "Iterable[str]" = (),
        check_interval: Optional[float] = None,
        raise_immediately: bool = True,
    ):
        """Attach a runtime invariant checker to this deployment.

        Wires probes into every node (current and future joiners), a
        second transport observer for the independent cost tally, and —
        when ``check_interval`` is given — a periodic structural audit.
        :meth:`run` finishes with a quiescence check.  The checker is
        read-only with respect to the simulation: metrics and random
        streams are untouched, so a checked run's
        :class:`MetricsSummary` is identical to an unchecked one's.

        ``hazards`` declares the adversities the driving scenario will
        inject (see :data:`repro.invariants.HAZARDS`) so the checker can
        relax exactly the properties those adversities legitimately
        break.  Returns the checker.
        """
        from repro.invariants.checker import InvariantChecker

        if self.invariants is not None:
            raise RuntimeError("an invariant checker is already attached")
        if check_interval is not None and check_interval <= 0:
            # Validate before touching any state, so a rejected call
            # leaves the network re-attachable.
            raise ValueError(
                f"check_interval must be positive, got {check_interval}"
            )
        checker = InvariantChecker(
            self, hazards=hazards, raise_immediately=raise_immediately
        )
        self.invariants = checker
        self.transport.add_send_observer(checker.on_send)
        for node in self.nodes.values():
            node.invariant_probe = checker
        if check_interval is not None:
            self._schedule_invariant_audit(check_interval)
        return checker

    def _schedule_invariant_audit(self, interval: float) -> None:
        self.sim.schedule(interval, self._invariant_audit_tick, interval)

    def _invariant_audit_tick(self, interval: float) -> None:
        # A bound method (not a closure) so a pending audit tick pickles
        # into checkpoints along with everything else on the heap.
        self.invariants.audit_network()
        if self.sim.now < self.config.sim_end:
            self.sim.schedule(interval, self._invariant_audit_tick, interval)

    # ------------------------------------------------------------------
    # Keep-alive failure detection (§2.1)
    # ------------------------------------------------------------------

    def enable_keepalive(
        self, period: float = 10.0, miss_threshold: int = 3
    ) -> None:
        """Attach heartbeat monitors to every node (and future joiners).

        With monitors on, :meth:`crash_node` models a *silent* failure:
        the overlay keeps routing through the corpse (messages to it are
        dropped) until a neighbor's monitor suspects it, at which point
        the network completes the departure — the §2.1 "trigger recovery
        mechanisms" loop, end to end.
        """
        self._keepalive_settings = (period, miss_threshold)
        for node_id, node in self.nodes.items():
            self._attach_monitor(node_id, node)

    def _attach_monitor(self, node_id: NodeId, node: CupNode) -> None:
        if self._keepalive_settings is None:
            return
        from repro.core.keepalive import KeepAliveMonitor

        period, miss_threshold = self._keepalive_settings
        monitor = KeepAliveMonitor(
            sim=self.sim,
            transport=self.transport,
            node_id=node_id,
            # A partial of a bound method (not a lambda) so monitors
            # pickle into checkpoints.
            neighbors_fn=functools.partial(self._monitor_neighbors, node_id),
            period=period,
            miss_threshold=miss_threshold,
            on_suspect=self._on_suspected_failure,
        )
        node.keepalive_monitor = monitor
        monitor.start()

    def _monitor_neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Current overlay neighbors of a member (empty once departed)."""
        if node_id not in self.nodes:
            return []
        return list(self.overlay.neighbors(node_id))

    def crash_node(self, node_id: NodeId) -> None:
        """A node fails silently: gone from the transport, overlay intact.

        Detection (if keep-alive is enabled) later completes the failure
        via :meth:`leave_node`.  Without monitors the corpse routes
        nothing forever — callers then repair explicitly.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"node {node_id!r} is not a member")
        self._require_private_topology("crash_node")
        if node.keepalive_monitor is not None:
            node.keepalive_monitor.stop()
        self.transport.unregister(node_id)
        self._crashed.add(node_id)
        self._member_list = [n for n in self._member_list if n != node_id]
        if self.invariants is not None:
            self.invariants.on_membership_change("crash", node_id)
        self.tracer.emit(self.sim.now, "churn", event="crash", node=node_id)

    def recover_node(self, node_id: NodeId) -> None:
        """A crashed node comes back: transport re-attached, state intact.

        The inverse of :meth:`crash_node` for the crash-recover fault
        model (a process restart, not a departure): the overlay never
        removed the node, so routing resumes immediately.  Cache and
        authority state survive — what the node missed while dark is
        exactly what the recovery layer's gap detection and pull-on-miss
        degradation exist to repair.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"node {node_id!r} is not a member")
        self._require_private_topology("recover_node")
        if node_id not in self._crashed:
            raise ValueError(f"node {node_id!r} is not crashed")
        self._crashed.discard(node_id)
        self.transport.register(node_id, node)
        # Rebuild from the node dict (insertion-ordered and never
        # reordered by crashes) so the member list is deterministic
        # regardless of crash/recover interleaving.
        self._member_list = [
            n for n in self.nodes if n not in self._crashed
        ]
        if node.keepalive_monitor is not None:
            node.keepalive_monitor.start()
        if self.invariants is not None:
            self.invariants.on_membership_change("recover", node_id)
        self.tracer.emit(self.sim.now, "churn", event="recover", node=node_id)

    def _on_suspected_failure(self, reporter: NodeId, suspect: NodeId) -> None:
        if suspect not in self._crashed:
            return  # false alarm (e.g. transient); live nodes stay
        self._crashed.discard(suspect)
        self.failure_detections.append(
            (self.sim.now, reporter, suspect)
        )
        self.leave_node(suspect, graceful=False)

    # ------------------------------------------------------------------
    # Churn (§2.9)
    # ------------------------------------------------------------------

    def live_node_ids(self) -> List[NodeId]:
        return self._member_list

    def _require_private_topology(self, operation: str) -> None:
        """Reject membership changes on a shared topology snapshot.

        A network built from the executor's topology cache shares one
        overlay object with other runs; mutating its membership would
        corrupt every simulation leasing the same snapshot.  The
        executor only shares snapshots with churn-free cells, so this
        guard can fire only on direct misuse — loudly, not subtly.
        """
        if self._topology_shared:
            raise RuntimeError(
                f"{operation} on a network built from a shared topology "
                "snapshot; construct the CupNetwork without `topology=` "
                "for runs that change membership"
            )

    def join_node(self, node_id: NodeId) -> CupNode:
        """A new node joins: overlay split, index handover, wiring."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} is already a member")
        self._require_private_topology("join_node")
        self.overlay.join(node_id)
        node = self._create_node(node_id)
        self._attach_monitor(node_id, node)
        self._member_list = list(self.nodes)
        self._reassign_authority_entries()
        if self.invariants is not None:
            self.invariants.on_membership_change("join", node_id)
        self.tracer.emit(self.sim.now, "churn", event="join", node=node_id)
        return node

    def leave_node(self, node_id: NodeId, graceful: bool = True) -> None:
        """A node departs; neighbors take over its zone and (optionally)
        its index entries (§2.9)."""
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"node {node_id!r} is not a member")
        self._require_private_topology("leave_node")
        former_neighbors = list(self.overlay.neighbors(node_id))
        departing_index = node.authority_index
        self.overlay.leave(node_id)
        del self.nodes[node_id]
        self.transport.unregister(node_id)
        self._member_list = list(self.nodes)

        if graceful and self.nodes:
            # The departing node hands its directory to the new owners;
            # ungraceful departures lose it (entries at caches simply
            # expire and later queries restart propagation).
            slices = departing_index.extract_keys(list(departing_index.keys()))
            for key, per_key in slices.items():
                new_owner = self.overlay.authority(key)
                self.nodes[new_owner].authority_index.absorb({key: per_key})

        # §2.9: patch interest bit vectors of the affected nodes.
        alive = set(self.nodes)
        for neighbor_id in former_neighbors:
            neighbor = self.nodes.get(neighbor_id)
            if neighbor is not None:
                neighbor.patch_after_churn(alive)
        if self.invariants is not None:
            self.invariants.on_membership_change(
                "leave" if graceful else "fail", node_id
            )
        self.tracer.emit(
            self.sim.now, "churn",
            event="leave" if graceful else "fail", node=node_id,
        )

    def _reassign_authority_entries(self) -> None:
        """Move directory slices to their current authority owners.

        Called after membership changes: any node holding entries for
        keys it no longer owns extracts and ships them (the §2.9 "give a
        copy of its stored index entries" option).
        """
        for node_id, node in list(self.nodes.items()):
            misplaced = [
                key for key in list(node.authority_index.keys())
                if self.overlay.authority(key) != node_id
            ]
            if not misplaced:
                continue
            slices = node.authority_index.extract_keys(misplaced)
            for key, per_key in slices.items():
                owner = self.overlay.authority(key)
                self.nodes[owner].authority_index.absorb({key: per_key})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def node(self, node_id: NodeId) -> CupNode:
        return self.nodes[node_id]

    def summary(self) -> MetricsSummary:
        self._refresh_setup_costs()
        return self.metrics.summary()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CupNetwork(mode={self.config.mode!r}, nodes={len(self.nodes)}, "
            f"keys={len(self.keys)}, policy={self.policy.name})"
        )
