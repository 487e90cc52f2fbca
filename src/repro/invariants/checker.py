"""Runtime invariant checking for a live CUP deployment.

The checker attaches to a fully wired
:class:`~repro.core.protocol.CupNetwork` and verifies, while the
simulation runs, the correctness properties the paper argues for:

**Per-key version monotonicity** (§2.3)
    At every node, the sequence numbers of index entries *applied* to
    the cache for one (key, replica) strictly increase.  The authority
    issues monotone sequences; FIFO links preserve them; the cache's
    own stale-discard guard is verified independently here rather than
    trusted.

**Interest-set consistency** (§2.6/§2.10)
    Interest bits at a node must describe its propagation-tree
    children: every neighbor with a bit set is a live member whose
    upstream parent (overlay ``next_hop``) for that key is this node.

**No update loss or duplication at quiescence** (§2.5)
    Once the network settles, every posted query has been answered
    exactly once (local hit or delivered response), and no node saw the
    same logical update twice.

**Cumulative cost balance** (§3.1)
    The checker keeps its own per-kind hop tally from an independent
    transport observer and requires it to match
    :class:`~repro.metrics.collector.MetricsCollector` exactly, along
    with the derived cost identities (miss + overhead = total, posted =
    hits + misses, ...).

Hazards and relaxation
----------------------

Some invariants only hold in benign conditions; adversarial scenarios
declare the hazards they introduce and the checker relaxes exactly the
affected checks:

========== ==========================================================
hazard      relaxed checks
========== ==========================================================
churn       interest-tree consistency, loss-freedom, duplicate
            detection (membership changes legitimately re-route
            queries and strand in-flight responses), and sequence
            monotonicity across authority changes (an ungraceful
            departure loses the directory's sequence counters, so the
            successor restarts streams at 1)
crash       same as churn (a crash is churn with a detection delay)
partition   loss-freedom and duplicate detection (messages are
            legitimately lost at the cut; retries can duplicate)
capacity    loss-freedom (responses can expire in queues) and
            monotonicity *across deletes* (the priority pump can
            legitimately reorder a delete past a queued refresh,
            reinstalling a dead entry until it expires)
loss        loss-freedom and duplicate detection (messages vanish in
            transit; NACK-triggered retransmissions legitimately
            re-deliver)
duplication duplicate detection only (the transport itself delivers
            some messages twice; the recovery layer's duplicate
            suppression is what keeps caches correct, and is verified
            by the sequence watermark audit instead)
reorder     duplicate detection (a retransmission can race its
            original past the jitter)
========== ==========================================================

Under an unreliable transport the loss-freedom check is replaced by the
opt-in :meth:`InvariantChecker.audit_convergence` quiescence audit:
every node still subscribed to a key (complete interest chain to the
authority) must hold the authority's final versions — or have recorded
a degraded read, the recovery layer's explicit "I gave up and pulled"
marker.

Everything else — structural cache consistency, local monotonicity,
cost balance — holds under every scenario and is always enforced.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.messages import UpdateType
from repro.sim.network import Message, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.entry import IndexEntry
    from repro.core.protocol import CupNetwork

#: Recognized scenario hazards (see module docstring for their effect).
HAZARDS: FrozenSet[str] = frozenset({
    "churn", "crash", "partition", "capacity",
    "loss", "duplication", "reorder",
})

#: Cap on remembered delivered-update fingerprints for duplicate
#: detection; beyond this the duplicate check stops (never wrongly
#: fires) so memory stays bounded on very long runs.
MAX_TRACKED_DELIVERIES = 500_000


@dataclasses.dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    detail: str
    node: Any = None
    key: Optional[str] = None

    def __str__(self) -> str:
        where = ""
        if self.node is not None:
            where += f" node={self.node!r}"
        if self.key is not None:
            where += f" key={self.key!r}"
        return f"[t={self.time:.3f}] {self.invariant}{where}: {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised on the first violation when ``raise_immediately`` is set."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


class InvariantChecker:
    """Observes one :class:`CupNetwork` and enforces protocol invariants.

    Do not construct directly in normal use —
    :meth:`CupNetwork.attach_invariants` wires the probes, the transport
    observer and the optional periodic audit in one step.

    Parameters
    ----------
    network:
        The deployment under check.
    hazards:
        Scenario-declared hazard set (subset of :data:`HAZARDS`);
        relaxes exactly the checks those hazards legitimately break.
    raise_immediately:
        When True (default), the first violation raises
        :class:`InvariantViolationError` at the moment it is observed —
        inside the offending event, so the stack points at the cause.
        When False, violations accumulate in :attr:`violations`.
    """

    def __init__(
        self,
        network: "CupNetwork",
        hazards: Iterable[str] = (),
        raise_immediately: bool = True,
    ):
        hazard_set = frozenset(hazards)
        unknown = hazard_set - HAZARDS
        if unknown:
            raise ValueError(
                f"unknown hazards: {sorted(unknown)}; choose from "
                f"{sorted(HAZARDS)}"
            )
        self.network = network
        self.hazards = hazard_set
        # Temporarily declared hazards (hazard -> expiry time, +inf for
        # indefinite): a fault injector opens a window around each
        # injected fault so exactly the affected checks relax for
        # exactly the fault's duration, instead of declaring the hazard
        # for the whole run.  Empty on the simulator's scenario path, so
        # the hot predicates below stay one truthiness test.
        self._hazard_windows: Dict[str, float] = {}
        self.raise_immediately = raise_immediately
        self.violations: List[Violation] = []
        #: Counters for reporting/tests.
        self.audits_run = 0
        self.entries_checked = 0
        self.updates_seen = 0
        self.membership_events = 0
        # Per-(node, key, replica) highest applied sequence number.
        self._watermarks: Dict[Tuple[Any, str, str], int] = {}
        # Fingerprints of delivered updates for duplicate detection.
        self._delivered: Set[tuple] = set()
        # Independent tallies, compared against MetricsCollector.  The
        # update tally is a flat list indexed by UpdateType (this
        # observer fires on every overlay hop; building a dict key per
        # hop would dominate checked runs).
        self._query_hops = 0
        self._clear_bit_hops = 0
        self._update_hop_tally = [0, 0, 0, 0]
        self._posted = 0
        self._immediate_hits = 0
        self._answers = 0

    # ------------------------------------------------------------------
    # Hazard windows (temporary declarations around injected faults)
    # ------------------------------------------------------------------

    def open_hazard_window(
        self, hazards: Iterable[str], duration: Optional[float] = None
    ) -> None:
        """Declare ``hazards`` temporarily, around an injected fault.

        With ``duration`` the window closes itself ``duration`` seconds
        from the network clock's *now*; without, it stays open until
        :meth:`close_hazard_window`.  Re-opening an already open window
        extends it (the later expiry wins) — overlapping fault
        injections must not shorten each other's grace.
        """
        hazard_set = frozenset(hazards)
        unknown = hazard_set - HAZARDS
        if unknown:
            raise ValueError(
                f"unknown hazards: {sorted(unknown)}; choose from "
                f"{sorted(HAZARDS)}"
            )
        if duration is not None and duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        expiry = (
            float("inf") if duration is None
            else self.network.sim.now + duration
        )
        windows = self._hazard_windows
        for hazard in hazard_set:
            current = windows.get(hazard)
            if current is None or expiry > current:
                windows[hazard] = expiry

    def close_hazard_window(
        self, hazards: Optional[Iterable[str]] = None
    ) -> None:
        """Close the named windows (or every open one with ``None``)."""
        if hazards is None:
            self._hazard_windows.clear()
            return
        for hazard in hazards:
            self._hazard_windows.pop(hazard, None)

    def active_hazards(self) -> FrozenSet[str]:
        """The base hazard set plus every currently open window."""
        windows = self._hazard_windows
        if not windows:
            return self.hazards
        now = self.network.sim.now
        expired = [h for h, expiry in windows.items() if expiry < now]
        for hazard in expired:
            del windows[hazard]
        if not windows:
            return self.hazards
        return self.hazards | frozenset(windows)

    # ------------------------------------------------------------------
    # Hazard predicates
    # ------------------------------------------------------------------

    @property
    def _membership_unstable(self) -> bool:
        return bool(self.active_hazards() & {"churn", "crash"})

    @property
    def _lossy(self) -> bool:
        return bool(
            self.active_hazards()
            & {"churn", "crash", "partition", "capacity", "loss"}
        )

    @property
    def _dup_tolerant(self) -> bool:
        return self._lossy or bool(
            self.active_hazards() & {"duplication", "reorder"}
        )

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------

    def _violate(
        self,
        invariant: str,
        detail: str,
        node: Any = None,
        key: Optional[str] = None,
    ) -> None:
        violation = Violation(
            time=self.network.sim.now, invariant=invariant, detail=detail,
            node=node, key=key,
        )
        self.violations.append(violation)
        if self.raise_immediately:
            raise InvariantViolationError(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    # Transport observer (cost tally)
    # ------------------------------------------------------------------

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Independent hop tally; wired as a second transport observer."""
        kind = message.kind
        if kind == "update":
            self._update_hop_tally[message.update_type] += 1
        elif kind == "query":
            self._query_hops += 1
        elif kind == "clear_bit":
            self._clear_bit_hops += 1

    # ------------------------------------------------------------------
    # Node probes (called from CupNode when a checker is attached)
    # ------------------------------------------------------------------

    def query_posted(self, node_id: NodeId, key: str, answered: bool) -> None:
        self._posted += 1
        if answered:
            self._immediate_hits += 1

    def waiters_answered(self, node_id: NodeId, key: str, count: int) -> None:
        if count < 0:
            self._violate(
                "structural", f"negative waiter count {count}",
                node=node_id, key=key,
            )
        self._answers += count

    def update_delivered(
        self, node_id: NodeId, update: Any, sender: NodeId
    ) -> None:
        """Duplicate detection: one logical update reaches a node once.

        The fingerprint identifies the logical update (key, type,
        issuing instant and carried versions) — forks of one update sent
        to *different* nodes hash differently because the receiving node
        is part of the fingerprint.
        """
        self.updates_seen += 1
        if self._dup_tolerant or len(self._delivered) >= MAX_TRACKED_DELIVERIES:
            # Retries after loss — and a faulty transport's own
            # duplications — legitimately re-deliver; skip.
            return
        if getattr(update, "route", None) is not None:
            # Standard-caching responses ride per-query open connections:
            # two identical queries legitimately produce two identical
            # responses, so per-message duplication is not a defect there.
            return
        fingerprint = (
            node_id, sender, update.key, update.update_type,
            update.issued_at,
            tuple(sorted((e.replica_id, e.sequence) for e in update.entries)),
        )
        if fingerprint in self._delivered:
            self._violate(
                "no-duplication",
                f"update {update.update_type.value} issued at "
                f"t={update.issued_at:.3f} from {sender!r} delivered twice",
                node=node_id, key=update.key,
            )
        self._delivered.add(fingerprint)

    def entry_applied(self, node_id: NodeId, key: str, entry: "IndexEntry") -> None:
        """Version monotonicity: applied sequences strictly increase.

        Relaxed while membership is unstable: an *ungraceful* authority
        departure loses the directory (and its sequence counters, §2.9),
        so the successor authority legitimately restarts a replica's
        stream at sequence 1.  The watermark then tracks the maximum so
        the structural ``cached <= watermark`` audit stays sound.
        """
        mark_key = (node_id, key, entry.replica_id)
        last = self._watermarks.get(mark_key)
        if last is not None and entry.sequence <= last:
            if not self._membership_unstable:
                self._violate(
                    "version-monotonicity",
                    f"applied sequence {entry.sequence} after {last} for "
                    f"replica {entry.replica_id!r}",
                    node=node_id, key=key,
                )
            self._watermarks[mark_key] = max(last, entry.sequence)
            return
        self._watermarks[mark_key] = entry.sequence

    def entry_removed(self, node_id: NodeId, key: str, replica_id: str) -> None:
        if "capacity" in self.active_hazards():
            # The priority pump can send a delete past a queued refresh;
            # the stale reinstall that follows is documented protocol
            # behaviour (bounded by the entry lifetime), so the
            # watermark resets at the delete instead of firing.
            self._watermarks.pop((node_id, key, replica_id), None)

    # ------------------------------------------------------------------
    # Membership bookkeeping (called from CupNetwork churn operations)
    # ------------------------------------------------------------------

    def on_membership_change(self, event: str, node_id: NodeId) -> None:
        self.membership_events += 1
        if not self._membership_unstable:
            # Joins re-route keys just like departures do, so *any*
            # undeclared membership change is flagged here — better a
            # clear hazard-declaration violation now than a misleading
            # interest-consistency one at the next audit.
            self._violate(
                "hazard-declaration",
                f"membership event {event!r} in a run whose scenario "
                "declared no churn/crash hazard",
                node=node_id,
            )

    # ------------------------------------------------------------------
    # Structural audits (periodic and at quiescence)
    # ------------------------------------------------------------------

    def audit_network(self) -> None:
        """Walk every node's cache and channels; structural invariants.

        Safe to call at any simulation instant — these properties hold
        in flight, not only at quiescence.
        """
        network = self.network
        self.audits_run += 1
        check_tree = not self._membership_unstable
        live = set(network.nodes)
        for node_id, node in list(network.nodes.items()):
            for problem in node.cache.audit_consistency():
                self._violate("structural", problem, node=node_id)
            channels = node.channels
            queued_counter, queued_actual = (
                (0, 0) if channels is None else channels.pending_counts()
            )
            if queued_counter != queued_actual:
                self._violate(
                    "structural",
                    f"channel pending counter {queued_counter} != actual "
                    f"queued {queued_actual}",
                    node=node_id,
                )
            for state in node.cache:
                self.entries_checked += len(state.entries)
                if (
                    node.env.coalesce
                    and state.local_waiters
                    and not state.pending_first_update
                ):
                    # Coalescing couples the two: a waiter exists exactly
                    # while the coalesced upstream query is outstanding.
                    self._violate(
                        "structural",
                        f"{state.local_waiters} local waiter(s) with no "
                        "pending first update to answer them",
                        node=node_id, key=state.key,
                    )
                for replica_id, entry in state.entries.items():
                    mark = self._watermarks.get(
                        (node_id, state.key, replica_id)
                    )
                    if mark is not None and entry.sequence > mark:
                        self._violate(
                            "version-monotonicity",
                            f"cached sequence {entry.sequence} exceeds the "
                            f"applied watermark {mark} (entry bypassed the "
                            "apply path)",
                            node=node_id, key=state.key,
                        )
                if node_id in state.interest:
                    self._violate(
                        "interest-consistency",
                        "node holds an interest bit for itself",
                        node=node_id, key=state.key,
                    )
                if check_tree:
                    self._audit_interest_tree(node_id, state, live)

    def _audit_interest_tree(
        self, node_id: NodeId, state, live: Set[NodeId]
    ) -> None:
        """§2.10: interest bits name live propagation-tree children."""
        overlay = self.network.overlay
        for child in state.interest:
            if child not in live:
                self._violate(
                    "interest-consistency",
                    f"interest bit set for departed node {child!r}",
                    node=node_id, key=state.key,
                )
                continue
            parent = overlay.next_hop(child, state.key)
            if parent != node_id:
                self._violate(
                    "interest-consistency",
                    f"interest bit set for {child!r}, whose upstream "
                    f"parent is {parent!r}",
                    node=node_id, key=state.key,
                )

    def check_quiescent(self) -> None:
        """Full end-of-run verification (structure, balance, loss)."""
        self.audit_network()
        self._check_cost_balance()
        if not self._lossy:
            self._check_loss_freedom()

    # -- convergence under an unreliable transport ----------------------

    def audit_convergence(self, slack: float = 15.0) -> None:
        """Quiescence audit: subscribed caches converged or degraded.

        The unreliable-transport analogue of loss-freedom: for every
        node still *subscribed* to a key — a complete interest chain to
        the authority, each hop's parent holding its child's bit — every
        settled authority version (issued more than ``slack`` seconds
        ago, so retransmissions and backoff have had time to run) must
        be cached at the node at that version or newer.  A node that
        gave up on a broken branch is excused iff its recovery layer
        recorded the degradation (``degraded_keys``) — silent staleness
        is exactly the failure mode this audit exists to catch.

        Nodes whose subscription chain is broken are excluded: an
        unsubscribed node legitimately goes stale (standard cache-
        expiry semantics serve it), and the chain itself is audited by
        the interest-tree checks.
        """
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        network = self.network
        now = network.sim.now
        overlay = network.overlay
        nodes = network.nodes
        cutoff = now - slack
        for node_id, node in nodes.items():
            recovery = node.recovery
            degraded = (
                recovery.degraded_keys if recovery is not None
                else frozenset()
            )
            for state in list(node.cache):
                key = state.key
                authority_id = overlay.authority(key)
                if authority_id == node_id:
                    continue
                authority = nodes.get(authority_id)
                if authority is None:
                    continue
                settled = [
                    entry
                    for entry in authority.authority_index.fresh_entries(
                        key, now
                    )
                    if entry.timestamp <= cutoff
                ]
                if not settled:
                    continue
                if not self._subscribed(node_id, key, authority_id):
                    continue
                if key in degraded:
                    continue
                cached = state.entries
                for entry in settled:
                    held = cached.get(entry.replica_id)
                    if held is None or held.sequence < entry.sequence:
                        self._violate(
                            "convergence",
                            "subscribed node is stale for replica "
                            f"{entry.replica_id!r}: holds sequence "
                            f"{held.sequence if held is not None else None}, "
                            f"authority settled at {entry.sequence}, and no "
                            "degraded read was recorded",
                            node=node_id, key=key,
                        )

    def _subscribed(
        self, node_id: NodeId, key: str, authority_id: NodeId
    ) -> bool:
        """Whether ``node_id`` has a complete interest chain for ``key``."""
        overlay = self.network.overlay
        nodes = self.network.nodes
        current = node_id
        seen = {current}
        while current != authority_id:
            parent = overlay.next_hop(current, key)
            if parent is None or parent in seen:
                return False
            parent_node = nodes.get(parent)
            if parent_node is None:
                return False
            parent_state = parent_node.cache.get(key)
            if parent_state is None or current not in parent_state.interest:
                return False
            seen.add(parent)
            current = parent
        return True

    # -- cost balance ---------------------------------------------------

    def _check_cost_balance(self) -> None:
        metrics = self.network.metrics
        for name, ours, theirs in (
            ("query_hops", self._query_hops, metrics.query_hops),
            ("clear_bit_hops", self._clear_bit_hops, metrics.clear_bit_hops),
            *(
                (
                    f"update_hops[{t.value}]",
                    self._update_hop_tally[t],
                    metrics.update_hops[t],
                )
                for t in UpdateType
            ),
            ("queries_posted", self._posted, metrics.queries_posted),
            ("local_hits", self._immediate_hits, metrics.local_hits),
            ("answers_delivered", self._answers, metrics.answers_delivered),
        ):
            if ours != theirs:
                self._violate(
                    "cost-balance",
                    f"independent {name} tally {ours} != collector {theirs}",
                )
        for name, lhs, rhs in metrics.audit_identities():
            if lhs != rhs:
                self._violate(
                    "cost-balance", f"identity {name} broken: {lhs} != {rhs}"
                )
        if metrics.answers_delivered > metrics.misses:
            # Each miss opens exactly one local waiter; answering more
            # waiters than misses means an answer was double-delivered.
            self._violate(
                "cost-balance",
                f"answers_delivered {metrics.answers_delivered} exceeds "
                f"misses {metrics.misses}",
            )
        transport = self.network.transport
        accounted = transport.delivered + transport.dropped + transport.blocked
        # Fault injection shifts the conservation identity: a duplicated
        # send is accounted twice without a second `sent`, and a lost
        # send is charged but never accounted.  A live transport sees
        # only its own process's half of the cluster traffic, so frames
        # that arrived off the wire (charged as `sent` by the remote
        # sender) are offered through its `received` counter — absent on
        # simulator transports, where every send is already local.
        offered = (
            transport.sent + transport.sent_direct
            + transport.duplicated - transport.lost
            + getattr(transport, "received", 0)
        )
        if accounted > offered:
            self._violate(
                "cost-balance",
                f"transport accounted for {accounted} messages but only "
                f"{offered} were offered (sent + direct + duplicated "
                "- lost + received)",
            )

    # -- loss freedom ---------------------------------------------------

    def _check_loss_freedom(self) -> None:
        metrics = self.network.metrics
        if metrics.local_hits + metrics.answers_delivered != metrics.queries_posted:
            self._violate(
                "no-loss",
                f"{metrics.queries_posted} queries posted but "
                f"{metrics.local_hits} hit + {metrics.answers_delivered} "
                "answered",
            )
        for node_id, node in self.network.nodes.items():
            for state in node.cache:
                if state.local_waiters:
                    self._violate(
                        "no-loss",
                        f"{state.local_waiters} local client(s) still "
                        "awaiting an answer at quiescence",
                        node=node_id, key=state.key,
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> str:
        windows = sorted(self._hazard_windows)
        lines = [
            f"invariants: {'OK' if self.ok else 'VIOLATED'} "
            f"(hazards={sorted(self.hazards) or 'none'}, "
            + (f"windows={windows}, " if windows else "")
            + f"audits={self.audits_run}, updates={self.updates_seen}, "
            f"entries={self.entries_checked})"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantChecker(hazards={sorted(self.hazards)}, "
            f"violations={len(self.violations)})"
        )
