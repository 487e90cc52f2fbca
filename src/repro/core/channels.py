"""Outgoing update channels with adaptive capacity control (§2.8).

Every CUP node keeps one logical update channel per neighbor.  Under full
capacity an update eligible for forwarding is sent immediately.  Under
limited capacity the paper's mechanism applies:

* the node's outgoing capacity ``U`` (updates per second) is divided
  among its channels in proportion to queue length, which keeps the
  queues roughly equally sized — implemented here by always serving the
  longest queue;
* while updates wait, each channel reorders its queue so updates with the
  greatest impact go first: by default first-time > delete > refresh >
  append, and within a type, entries closest to expiring first (they are
  the ones about to cause freshness misses);
* expired updates are eliminated during reordering, so queues are
  bounded by the entry lifetimes even if a channel is shut for a long
  time.

Two capacity knobs exist because the paper uses two notions:

* ``rate`` — the §2.8 architecture: a token-rate pump draining queues.
* ``fraction`` — the §3.7 experiments: "a reduced capacity c = .25 means
  a node is only pushing out one-fourth the updates it receives";
  implemented as probabilistic forwarding with probability ``c``.

First-time updates (query responses) are exempt from the ``fraction``
filter: the paper's degraded mode is *standard caching*, which still
answers queries — only cache maintenance decays.  Under ``rate`` they
share the pump but at the highest priority, as §2.8 prescribes.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.cache import NO_ITEMS
from repro.core.messages import UpdateMessage, UpdateType
from repro.sim.engine import Simulator
from repro.sim.network import NodeId

if TYPE_CHECKING:  # annotations only: a live node runs without numpy
    import numpy as np


class CapacityConfig:
    """Capacity settings for one node's outgoing update channels.

    Parameters
    ----------
    fraction:
        Probability of forwarding each eligible maintenance update
        (first-time updates bypass this).  1.0 = full capacity; 0.0 =
        the node pushes no maintenance updates at all, degrading its
        subtree to standard caching.
    rate:
        Maximum updates per second pushed across all channels, or
        ``None`` for unlimited.  When set, updates queue per neighbor and
        a pump drains them longest-queue-first with priority reordering.
    """

    __slots__ = ("fraction", "rate")

    def __init__(self, fraction: float = 1.0, rate: Optional[float] = None):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive or None, got {rate}")
        self.fraction = fraction
        self.rate = rate

    def unlimited(self) -> bool:
        """Whether this configuration imposes no constraint at all."""
        return self.fraction >= 1.0 and self.rate is None

    def __repr__(self) -> str:
        return f"CapacityConfig(fraction={self.fraction}, rate={self.rate})"


class _QueuedUpdate:
    """Heap element: priority-ordered pending update for one channel."""

    __slots__ = ("priority", "expiry", "seq", "update")

    def __init__(self, priority: int, expiry: float, seq: int,
                 update: UpdateMessage):
        self.priority = priority
        self.expiry = expiry
        self.seq = seq
        self.update = update

    def __lt__(self, other: "_QueuedUpdate") -> bool:
        # Higher update classes first; within a class, nearest expiry
        # first (the paper: push what is about to cause freshness misses);
        # FIFO as the final tie-break for determinism.
        if self.priority != other.priority:
            return self.priority < other.priority
        if self.expiry != other.expiry:
            return self.expiry < other.expiry
        return self.seq < other.seq


#: Priority table for latency/accuracy-first applications (§2.8's
#: default ordering).  Lower = pushed sooner.
DEFAULT_PRIORITIES: Dict[UpdateType, int] = {
    UpdateType.FIRST_TIME: 0,
    UpdateType.DELETE: 1,
    UpdateType.REFRESH: 2,
    UpdateType.APPEND: 3,
}

#: §2.8: "In an application subject to flash crowds that query for a
#: particular item, appends might be given higher priority over the
#: other updates.  This would help distribute the load faster across the
#: entire set of replicas."
FLASH_CROWD_PRIORITIES: Dict[UpdateType, int] = {
    UpdateType.FIRST_TIME: 0,
    UpdateType.APPEND: 1,
    UpdateType.DELETE: 2,
    UpdateType.REFRESH: 3,
}

PRIORITY_PROFILES: Dict[str, Dict[UpdateType, int]] = {
    "latency": DEFAULT_PRIORITIES,
    "flash-crowd": FLASH_CROWD_PRIORITIES,
}


class OutgoingUpdateChannels:
    """All outgoing update channels of one node, plus the capacity pump.

    Parameters
    ----------
    sim:
        Event engine (drives the rate pump).
    send_fn:
        Callback ``(neighbor_id, update) -> None`` that puts one update on
        the wire; supplied by the owning node.
    capacity:
        Initial :class:`CapacityConfig`; replaceable at runtime via
        :meth:`set_capacity` (the §3.7 fault injections do exactly that).
    rng:
        Random generator for the fractional-capacity coin flips.
    priorities:
        Optional override of the type-priority table.
    """

    __slots__ = (
        "_sim", "_send", "capacity", "unlimited", "_rng", "_priorities",
        "_queues", "_seq", "_pump_scheduled", "_pump_event", "_queued_total",
        "_tie_keys", "_longest", "forwarded", "suppressed",
        "expired_in_queue",
    )

    def __init__(
        self,
        sim: Simulator,
        send_fn: Callable[[NodeId, UpdateMessage], None],
        capacity: Optional[CapacityConfig] = None,
        rng: Optional[np.random.Generator] = None,
        priorities: Optional[Dict[UpdateType, int]] = None,
    ):
        self._sim = sim
        self._send = send_fn
        self.capacity = capacity or CapacityConfig()
        # Precomputed "no constraint at all" bit: the node reads this
        # once per fan-out (to hand it to the transport whole) instead of
        # re-deriving it from fraction/rate per child.  Kept in sync by
        # set_capacity.
        self.unlimited = self.capacity.unlimited()
        self._rng = rng
        self._priorities = priorities or DEFAULT_PRIORITIES
        # Shared empties until the first *queued* update binds the three
        # private containers together (see core.cache).
        self._queues: Dict[NodeId, List[_QueuedUpdate]] = NO_ITEMS
        self._seq = 0
        self._pump_scheduled = False
        self._pump_event = None
        # Incremental longest-queue tracking: total queued count (O(1)
        # pending check), one precomputed deterministic tie-break key per
        # neighbor, and a lazy max-heap of (-length, tie_key, neighbor)
        # entries refreshed on every length change.  Stale entries are
        # skipped at selection time, so the pump never rescans all queues.
        self._queued_total = 0
        self._tie_keys: Dict[NodeId, str] = NO_ITEMS
        self._longest: Sequence[tuple] = ()
        # Statistics (read by metrics and tests).
        self.forwarded = 0
        self.suppressed = 0
        self.expired_in_queue = 0

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------

    def set_capacity(self, capacity: CapacityConfig) -> None:
        """Change capacity at runtime (fault injection / recovery).

        Raising capacity restarts the pump so queued updates drain at the
        new rate; queued updates are never lost by a capacity change
        (they expire or get pushed).
        """
        self.capacity = capacity
        self.unlimited = capacity.unlimited()
        if capacity.rate is not None and self._pending():
            # Re-pace the pump at the new rate immediately; the stale
            # schedule would otherwise linger at the old pace.
            if self._pump_event is not None:
                self._pump_event.cancel()
                self._pump_event = None
            self._pump_scheduled = False
            self._schedule_pump()
        if capacity.rate is None:
            if self._pump_event is not None:
                self._pump_event.cancel()
                self._pump_event = None
            self._pump_scheduled = False
            self._flush_all()

    # ------------------------------------------------------------------
    # Enqueue / send
    # ------------------------------------------------------------------

    def push(self, neighbor: NodeId, update: UpdateMessage) -> bool:
        """Offer one update to the channel toward ``neighbor``.

        Returns ``True`` if the update was sent or queued, ``False`` if
        capacity suppressed it.
        """
        first_time = update.update_type == UpdateType.FIRST_TIME
        if not first_time and self.capacity.fraction < 1.0:
            if self._rng is None:
                raise RuntimeError(
                    "fractional capacity requires an rng; pass one at "
                    "construction"
                )
            if self._rng.random() >= self.capacity.fraction:
                self.suppressed += 1
                return False
        if self.capacity.rate is None:
            self._send(neighbor, update)
            self.forwarded += 1
            return True
        queues = self._queues
        if not queues:
            # Queues are never removed, so a private dict stays true.
            queues = self._queues = {}
            self._tie_keys = {}
            self._longest = []
        seq = self._seq
        self._seq = seq + 1
        queued = _QueuedUpdate(
            self._priorities[update.update_type],
            update.carried_expiry() or float("inf"),
            seq,
            update,
        )
        queue = queues.get(neighbor)
        if queue is None:
            queue = queues[neighbor] = []
            self._tie_keys[neighbor] = str(neighbor)
        heapq.heappush(queue, queued)
        self._queued_total += 1
        heapq.heappush(
            self._longest, (-len(queue), self._tie_keys[neighbor], neighbor)
        )
        if not self._pump_scheduled:
            self._schedule_pump()
        return True

    # ------------------------------------------------------------------
    # Rate pump
    # ------------------------------------------------------------------

    def _pending(self) -> bool:
        return self._queued_total > 0

    def queue_length(self, neighbor: NodeId) -> int:
        """Pending updates toward ``neighbor`` (includes not-yet-purged
        expired ones)."""
        return len(self._queues.get(neighbor, ()))

    def pending_counts(self) -> tuple:
        """``(counter, actual)`` pending totals for invariant audits.

        ``counter`` is the O(1) incremental total the pump relies on;
        ``actual`` recounts every queue.  They must always agree — a
        drift means an enqueue/drain path skipped the bookkeeping.
        """
        return (
            self._queued_total,
            sum(len(queue) for queue in self._queues.values()),
        )

    def _schedule_pump(self) -> None:
        rate = self.capacity.rate
        if rate is None:
            return
        self._pump_scheduled = True
        self._pump_event = self._sim.schedule(1.0 / rate, self._pump_once)

    def _pump_once(self) -> None:
        self._pump_scheduled = False
        # The pump this event belonged to has fired; drop the reference so
        # a later ``set_capacity`` cannot cancel an already-fired event.
        self._pump_event = None
        now = self._sim.now
        # Proportional sharing: always serve the longest queue, which is
        # the discrete equivalent of giving each channel a share of U
        # proportional to its backlog (ties broken by id for determinism).
        # Selection is a lazy max-heap walk: entries whose recorded length
        # no longer matches the queue are stale and discarded; expiry
        # purging is amortized — only popped heads are examined, so a
        # pump tick costs O(log) instead of a full scan of every queue.
        queues = self._queues
        longest = self._longest
        while longest:
            neg_len, _, neighbor = longest[0]
            queue = queues.get(neighbor)
            if queue is None or len(queue) != -neg_len:
                heapq.heappop(longest)
                continue
            sent = False
            while queue:
                queued = heapq.heappop(queue)
                self._queued_total -= 1
                if queued.update.is_expired(now):
                    # Lazy elimination of expired updates (§2.8): they
                    # surface here in priority order and cost one pop each.
                    self.expired_in_queue += 1
                    continue
                self._send(neighbor, queued.update)
                self.forwarded += 1
                sent = True
                break
            heapq.heappop(longest)
            if queue:
                heapq.heappush(
                    longest, (-len(queue), self._tie_keys[neighbor], neighbor)
                )
            if sent:
                break
        if self._queued_total:
            self._schedule_pump()

    def _drop_expired(self, queue: List[_QueuedUpdate], now: float) -> None:
        """Eliminate expired updates during reordering (§2.8)."""
        if not queue:
            return
        live = [q for q in queue if not q.update.is_expired(now)]
        if len(live) != len(queue):
            self.expired_in_queue += len(queue) - len(live)
            queue[:] = live
            heapq.heapify(queue)

    def _flush_all(self) -> None:
        """Send everything queued (capacity became unlimited)."""
        if not self._queues:
            return
        now = self._sim.now
        for neighbor, queue in self._queues.items():
            self._drop_expired(queue, now)
            while queue:
                queued = heapq.heappop(queue)
                self._send(neighbor, queued.update)
                self.forwarded += 1
        self._queued_total = 0
        self._longest.clear()
