"""Composable adversarial scenarios for CUP simulations.

Assemble timed phases (churn bursts, partitions, flash crowds,
popularity drift, capacity faults, transport faults) into a
:class:`Scenario`, compile it onto a
:class:`~repro.core.protocol.CupNetwork`, and run it with runtime
protocol invariants attached::

    from repro.scenarios import SCENARIOS, run_scenario

    result = run_scenario(SCENARIOS["perfect-storm"], seed=7)
    assert result.ok
    print(result.report())

Any scenario can be rerun over an unreliable transport with
:func:`with_chaos`, which overlays seeded loss/duplication/jitter on the
query window and arms every node's recovery state machine.

See ``docs/scenarios.md`` for the DSL guide and ``docs/robustness.md``
for the fault model and recovery protocol.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "builtin": "SCENARIOS",
    "dsl": "CapacityFault ChaosSpec ChurnBurst DelayJitter "
           "DuplicateDelivery FlashCrowd MessageLoss NodeCrashRecover "
           "Partition Phase PopularityDrift Quiet Scenario ScenarioRuntime "
           "default_base_config with_chaos",
    "runner": "ScenarioResult run_scenario",
})
