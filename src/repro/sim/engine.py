"""Deterministic discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Heap
entries are ``(time, sequence, event)`` tuples, where ``sequence`` is a
monotonically increasing counter, so two events scheduled for the same
instant always fire in the order they were scheduled.  This determinism
matters: the CUP experiments compare protocol variants on identical
workloads, and any nondeterministic tie-breaking would contaminate the
comparison.

Storing the ordering key in the tuple (rather than ordering
:class:`Event` objects directly) lets the heap compare plain floats and
ints in C instead of calling ``Event.__lt__`` once per sift step — on
large runs the comparison count is several times the event count, so
this is one of the engine's hottest paths.

Typical usage::

    sim = Simulator()
    sim.schedule(1.5, lambda: print("fires at t=1.5"))
    handle = sim.schedule(9.0, lambda: print("never fires"))
    handle.cancel()
    sim.run()
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
from typing import Any, Callable, Optional


class SimulatorError(RuntimeError):
    """Raised on illegal simulator operations (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and may be used to
    cancel the event before it fires.  Cancelled events stay in the heap but
    are skipped when popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference for the simulator's live-event counter; detached
        # (set to None) once the event fires, so a late cancel() cannot
        # decrement the counter twice.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._live -= 1
                self._sim = None

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state} fn={self.fn!r}>"


class Simulator:
    """Time-ordered event loop with deterministic tie-breaking.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in seconds.  Defaults to ``0.0``.

    Notes
    -----
    The clock only advances when events fire; there is no wall-clock
    coupling.  ``run`` drains the heap, ``run_until`` stops the clock at a
    deadline, and ``step`` fires exactly one event (useful in tests).
    """

    def __init__(self, start_time: float = 0.0):
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property: the clock is read on every message handled and a
        #: Python-level descriptor call per read would tax the whole
        #: simulation.  Only the engine writes it.
        self.now = float(start_time)
        # Heap of (time, seq, Event); tuple comparison never reaches the
        # Event because (time, seq) is unique per entry.
        self._heap: list = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        # Live (scheduled, not cancelled, not fired) event count.  Kept
        # exact by schedule/cancel/pop so ``pending`` is O(1).
        self._live = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events awaiting execution."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.  A ``delay`` of
        zero is allowed and fires after all events already scheduled for the
        current instant (FIFO at equal timestamps).
        """
        # One comparison covers the common case; the chain is False for
        # negative, NaN (any comparison fails) and +inf delays alike.
        if not 0.0 <= delay < math.inf:
            if delay < 0:
                raise SimulatorError(
                    f"cannot schedule {delay} seconds in the past"
                )
            raise SimulatorError(f"invalid delay: {delay}")
        time = self.now + delay
        event = Event(time, next(self._seq), fn, args, self)
        self._live += 1
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def schedule_hop(self, delay: float, fn: Callable[..., Any], args: tuple) -> None:
        """Trusted fast-path scheduling for transport deliveries.

        Semantically :meth:`schedule` minus what deliveries never use:
        no cancellation handle, no delay validation (link delays are
        validated once at registration), and no :class:`Event` object —
        the heap entry carries a bare ``(fn, args)`` pair, saving an
        allocation and an ``__init__`` frame on the busiest event class
        in the system.  Timestamp and tie-break sequence are drawn from
        the same clock and counter as :meth:`schedule`, so interleaving
        both paths preserves deterministic ordering exactly.
        """
        self._live += 1
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), (fn, args))
        )

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulatorError(
                f"cannot schedule at t={time} (clock already at t={self.now})"
            )
        event = Event(time, next(self._seq), fn, args, self)
        self._live += 1
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the heap is empty.
        """
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.__class__ is tuple:
                # Bare (fn, args) hop entry from schedule_hop.
                self._live -= 1
                self.now = time
                self.events_processed += 1
                event[0](*event[1])
                return True
            if event.cancelled:
                continue
            self._live -= 1
            event._sim = None
            self.now = time
            self.events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``max_events`` fire).

        Returns the number of events processed by this call.
        """
        return self._run_loop(deadline=None, max_events=max_events)

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= deadline``; advance the clock to it.

        Events scheduled after ``deadline`` remain pending, so the
        simulation can be resumed with another ``run_until`` or ``run``.
        The clock moves to ``deadline`` only when nothing at or before
        it is left: a call cut short by ``max_events`` (or ``stop``)
        leaves the clock at the last event fired, with the earlier
        events still ahead of it.  Returns the number of events
        processed by this call.
        """
        if deadline < self.now:
            raise SimulatorError(
                f"deadline t={deadline} is before current time t={self.now}"
            )
        processed = self._run_loop(deadline=deadline, max_events=max_events)
        heap = self._heap
        # A cancelled entry still at the head counts as left: the loop
        # pops those as it meets them, so only a max_events cut can
        # leave one, and the next call disposes of it.
        if not self._stopped and (not heap or heap[0][0] > deadline):
            self.now = max(self.now, deadline)
        return processed

    def run_with_checkpoints(
        self,
        deadline: float,
        hook: Callable[[], Any],
        every_events: Optional[int] = None,
        every_seconds: Optional[float] = None,
    ) -> int:
        """Drive to ``deadline``, invoking ``hook()`` between chunks.

        The periodic auto-checkpoint entry point: the run is split into
        :meth:`run_until` chunks of at most ``every_events`` events
        and/or ``every_seconds`` simulated seconds, with ``hook`` called
        after each incomplete chunk — *outside* the event loop, so the
        hook sees a quiescent simulator (not mid-event, not reentrant)
        and consumes no event sequence numbers.  A chunked drive
        processes exactly the same events in exactly the same order as a
        single ``run_until(deadline)``, which is what makes checkpointed
        runs byte-identical to plain ones.

        Returns the number of events processed by this call.
        """
        if every_events is None and every_seconds is None:
            raise SimulatorError(
                "run_with_checkpoints needs every_events or every_seconds"
            )
        if every_events is not None and every_events < 1:
            raise SimulatorError(
                f"every_events must be >= 1, got {every_events}"
            )
        if every_seconds is not None and every_seconds <= 0:
            raise SimulatorError(
                f"every_seconds must be positive, got {every_seconds}"
            )
        processed = 0
        while True:
            horizon = deadline
            if every_seconds is not None:
                horizon = min(deadline, self.now + every_seconds)
            chunk = self.run_until(horizon, max_events=every_events)
            processed += chunk
            if self._stopped:
                break
            drained = every_events is None or chunk < every_events
            if drained and horizon >= deadline:
                break
            hook()
        return processed

    def stop(self) -> None:
        """Request that the currently running loop exits after this event."""
        self._stopped = True

    def _run_loop(self, deadline: Optional[float], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulatorError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        processed = 0
        # Hot-loop locals: attribute and global lookups cost a dict probe
        # per event otherwise, and this loop runs once per simulated event.
        # ``events_processed`` is accumulated locally and folded back in
        # the ``finally`` — grouped deliveries adjust the attribute
        # directly mid-run, and integer adds commute, so the final total
        # is exact either way.
        heap = self._heap
        heappop = heapq.heappop
        limit = math.inf if max_events is None else max_events
        horizon = math.inf if deadline is None else deadline
        # The loop allocates heavily (messages, envelopes, heap entries)
        # and none of that garbage is cyclic — everything frees by
        # reference counting the moment it is handled.  CPython's
        # generational collector would still scan the young generation
        # every few hundred net allocations, a cost that grows with the
        # event count, so it is parked for the duration of the loop.
        cyclic_gc = gc.isenabled()
        if cyclic_gc:
            gc.disable()
        try:
            while heap and not self._stopped:
                if processed >= limit:
                    break
                time, _, event = heap[0]
                if event.__class__ is tuple:
                    # Bare (fn, args) hop entry from schedule_hop — the
                    # bulk of every run; never cancellable.
                    if time > horizon:
                        break
                    heappop(heap)
                    self._live -= 1
                    self.now = time
                    processed += 1
                    event[0](*event[1])
                    continue
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                self._live -= 1
                event._sim = None
                self.now = time
                processed += 1
                event.fn(*event.args)
        finally:
            self._running = False
            self.events_processed += processed
            if cyclic_gc:
                gc.enable()
        return processed
