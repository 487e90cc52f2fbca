"""Discrete-event simulation engine used as the substrate for CUP.

The paper evaluates CUP on the Stanford Narses simulator, an event-driven
network simulator that is not publicly available.  This package provides a
deterministic replacement with the same capabilities CUP needs:

* :class:`~repro.sim.engine.Simulator` — a time-ordered event loop with
  deterministic tie-breaking, cancellable events and stop conditions.
* :class:`~repro.sim.random.RandomStreams` — named, independently seeded
  random streams so that workload, topology and fault randomness are
  decoupled (changing one does not perturb the others).
* :class:`~repro.sim.network.Transport` — hop-by-hop message delivery with
  per-link delays and per-message-class delivery hooks for metric
  accounting.
* :mod:`~repro.sim.process` — timers and periodic processes (replica
  refresh loops, capacity fault injectors, cache garbage collection).
* :mod:`~repro.sim.trace` — structured, filterable event tracing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "engine": "Event Simulator SimulatorError",
    "network": "Link Message Transport",
    "process": "PeriodicProcess Timer",
    "random": "RandomStreams",
    "trace": "TraceRecord Tracer",
})
