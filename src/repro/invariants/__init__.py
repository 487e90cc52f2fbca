"""Runtime protocol invariants for CUP simulations.

The checker observes a wired :class:`~repro.core.protocol.CupNetwork`
while it runs and asserts paper-level correctness properties *during*
execution — not just on the final metrics.  Attach one with
``network.attach_invariants()`` (or let the scenario runner do it).

See :mod:`repro.invariants.checker` for the invariant catalogue and the
hazard-based relaxation rules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "checker": "HAZARDS InvariantChecker InvariantViolationError Violation",
})
