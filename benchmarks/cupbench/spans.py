"""Timing wrappers around the public entry points of each layer.

A traced run replaces, at class or module-attribute level and *before the
system is built* (transports capture bound ``receive`` methods when a node
registers), each entry point named in :data:`SIM_TARGETS` /
:data:`LIVE_TARGETS` with a wrapper that records one span per call.  A
12-second run makes some ten million spans, so a span is folded into its
name's totals the moment it ends instead of being kept:

* ``calls[name]`` and ``total_ns[name]``: how often, and how long
  including everything the call called;
* ``self_ns[layer]``: the span's duration minus the part its child spans
  cover.  Spans nest through a per-thread stack, so a layer's self time is
  what it spent between its own entry and exit outside any other wrapped
  call, and the self times of all layers add up to the outermost spans;
* ``samples[name]``: every duration, for the few names whose percentiles
  are reported.

Coroutine entry points (``LiveNode._client_get``/``_client_put``) yield to
other tasks while they wait, so they are timed from call to completion and
kept off the stack: they have a duration but no self time.

End-to-end numbers are never taken with these installed.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

_clock = time.perf_counter_ns


class Target(NamedTuple):
    """One entry point: ``module:Class.attr`` or ``module:function``."""

    path: str
    layer: str
    #: Keep every duration (percentiles are reported for this name).
    keep: bool = False
    #: ``observe(sums, args, result)`` adds workload counts (bytes, widths).
    observe: Optional[Callable] = None
    #: Modules that imported the function by name and need the wrapper too.
    also: tuple = ()
    #: Wrap the attribute on every subclass that overrides it.
    subclasses: bool = False


class _ThreadTotals:
    def __init__(self):
        self.stack: List[int] = []
        self.clear()

    def clear(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self.sums: Dict[str, float] = defaultdict(float)


class Tracer:
    """Installs the wrappers and holds what they record, per thread."""

    def __init__(self):
        self._local = threading.local()
        self._threads: List[_ThreadTotals] = []
        self._lock = threading.Lock()

    def _totals(self) -> _ThreadTotals:
        totals = _ThreadTotals()
        self._local.totals = totals
        with self._lock:
            self._threads.append(totals)
        return totals

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, target: Target):
        local = self._local
        new_totals = self._totals
        layer, keep, observe = target.layer, target.keep, target.observe

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                started = _clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    elapsed = _clock() - started
                    totals = getattr(local, "totals", None) or new_totals()
                    totals.calls[name] += 1
                    totals.total_ns[name] += elapsed
                    if keep:
                        totals.samples[name].append(elapsed)

            return traced_coroutine

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                totals = local.totals
            except AttributeError:
                totals = new_totals()
            stack = totals.stack
            stack.append(0)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals.self_ns[layer] += elapsed - children
                totals.calls[name] += 1
                totals.total_ns[name] += elapsed
                if keep:
                    totals.samples[name].append(elapsed)
            if observe is not None:
                observe(totals.sums, args, result)
            return result

        return traced

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            module_name, _, dotted = target.path.partition(":")
            module = importlib.import_module(module_name)
            *owners, attr = dotted.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            name = f"{target.layer}:{dotted}"
            holders = [owner]
            if target.subclasses:
                holders = [cls for cls in _family(owner) if attr in vars(cls)]
            for holder in holders:
                original = vars(holder)[attr]
                wrapper = self._wrap(original, name, target)
                setattr(holder, attr, wrapper)
                for other in target.also:
                    other_module = importlib.import_module(other)
                    if getattr(other_module, attr) is original:
                        setattr(other_module, attr, wrapper)

    # -- reading -------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not the workload)."""
        with self._lock:
            for totals in self._threads:
                totals.clear()  # the stack stays: spans may be open

    def merged(self) -> _ThreadTotals:
        """Totals over all threads (call when the traced system is idle)."""
        out = _ThreadTotals()
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for field in ("calls", "total_ns", "self_ns", "sums"):
                merged = getattr(out, field)
                for key, value in getattr(totals, field).items():
                    merged[key] += value
            for key, values in totals.samples.items():
                out.samples[key].extend(values)
        return out


def _family(cls) -> list:
    found, queue = [], [cls]
    while queue:
        current = queue.pop()
        found.append(current)
        queue.extend(current.__subclasses__())
    return found


# ----------------------------------------------------------------------
# What each wrapper counts besides time
# ----------------------------------------------------------------------


def _fanout_width(sums, args, result) -> None:
    sums["fanout_width"] += len(args[2])  # (self, src, dsts, message)


def _local_hit(sums, args, result) -> None:
    if result:
        sums["local_hits"] += 1


def _encoded_bytes(sums, args, result) -> None:
    sums["encoded_bytes"] += len(result)


def _decoded_frames(sums, args, result) -> None:
    sums["decoded_frames"] += len(result)


def _saved_bytes(sums, args, result) -> None:
    sums["saved_bytes"] += os.path.getsize(result)  # save() returns the path


# ----------------------------------------------------------------------
# The entry points, by layer (layer = module name under ``repro``)
# ----------------------------------------------------------------------

_CORE_NODE = (
    Target("repro.core.node:CupNode.receive", "core.node"),
    Target("repro.core.node:CupNode.post_local_query", "core.node",
           observe=_local_hit),
)

SIM_TARGETS = (
    Target("repro.core.protocol:CupNetwork.__init__", "core.protocol",
           keep=True),
    Target("repro.core.protocol:CupNetwork.run", "core.protocol", keep=True),
    Target("repro.core.protocol:build_overlay", "overlay", keep=True),
    Target("repro.overlay.base:Overlay.next_hop", "overlay", subclasses=True),
    Target("repro.overlay.base:Overlay.authority", "overlay",
           subclasses=True),
    Target("repro.overlay.base:Overlay.distance", "overlay"),
    Target("repro.sim.engine:Simulator.schedule", "sim.engine"),
    Target("repro.sim.engine:Simulator.schedule_hop", "sim.engine"),
    Target("repro.sim.engine:Simulator.run_until", "sim.engine"),
    Target("repro.sim.network:Transport.send", "sim.network"),
    Target("repro.sim.network:Transport.send_fanout", "sim.network",
           observe=_fanout_width),
    Target("repro.sim.network:Transport.send_direct", "sim.network"),
    *_CORE_NODE,
    Target("repro.core.channels:OutgoingUpdateChannels.push",
           "core.channels"),
    Target("repro.core.channels:OutgoingUpdateChannels._pump_once",
           "core.channels"),
    Target("repro.core.recovery:RecoveryManager.stamp", "core.recovery"),
    Target("repro.core.recovery:RecoveryManager.note_received",
           "core.recovery"),
    Target("repro.core.recovery:RecoveryManager.handle_nack",
           "core.recovery"),
    Target("repro.workload.generator:QueryWorkload._fire", "workload"),
    Target("repro.workload.keyspace:KeySelector.select", "workload",
           subclasses=True),
    Target("repro.workload.arrivals:PoissonArrivals.next_gap", "workload"),
)

_WIRE_IMPORTERS = ("repro.net.daemon", "repro.net.client")

LIVE_TARGETS = (
    Target("repro.net.wire:encode_frame", "net.wire",
           observe=_encoded_bytes, also=_WIRE_IMPORTERS),
    Target("repro.net.wire:FrameDecoder.feed", "net.wire",
           observe=_decoded_frames),
    Target("repro.net.wire:message_to_wire", "net.wire",
           also=("repro.net.daemon",)),
    Target("repro.net.wire:message_from_wire", "net.wire",
           also=("repro.net.daemon",)),
    Target("repro.net.transport:LiveTransport.send", "net.transport"),
    Target("repro.net.transport:LiveTransport.send_fanout", "net.transport",
           observe=_fanout_width),
    Target("repro.net.transport:LiveTransport.send_direct", "net.transport"),
    Target("repro.net.transport:LiveTransport.deliver_wire",
           "net.transport"),
    Target("repro.net.daemon:LiveNode._client_get", "net.daemon"),
    Target("repro.net.daemon:LiveNode._client_put", "net.daemon"),
    Target("repro.net.daemon:LiveNode._process_peer_frame", "net.daemon"),
    Target("repro.net.daemon:LiveNode.send_wire", "net.daemon"),
    Target("repro.net.daemon:_PeerLink.send_json", "net.daemon"),
    Target("repro.net.client:NodeClient.request", "net.client"),
    *_CORE_NODE,
    Target("repro.persistence.nodestore:NodeStore.save",
           "persistence.nodestore", keep=True, observe=_saved_bytes),
)
