"""Experiment harnesses: one module per table/figure of the paper.

Every artifact of the paper's evaluation (§3.3-§3.7) has a module here
that sweeps the same axes, prints a table mirroring the paper's layout,
and checks the qualitative *shape* claims (who wins, monotone trends,
crossovers).  Each module exposes a ``run_*`` function returning a result
object with ``format_table()`` and ``check_expectations()``.

Scaling presets
---------------
Running the paper's exact operating points (1024-4096 nodes, up to 1000
queries/second for 3000 seconds) takes minutes per cell in a pure-Python
event simulator, so every experiment has two presets:

* ``small`` — scaled node count / rate / phase lengths that preserve the
  query density per node-cycle (and therefore the shape); used by the
  benchmark suite.
* ``paper`` — the paper's exact parameters; select with the environment
  variable ``REPRO_SCALE=paper`` or ``--scale paper`` on the CLI.

Workloads use a single key: the paper's cost model (§3.1) and all its
evaluation quantities are per-CUP-tree, and its query rates λ are the
aggregate Poisson rate of the tree under study.  Multi-key populations
are fully supported by the library (see the Zipf ablation bench and the
examples) — per-key trees are independent, so a K-key workload is K
superimposed copies of this experiment at rate λ/K each.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "capacity": "",
    "config": "Scale resolve_scale",
    "cutoff_policies": "",
    "executor": "",
    "justification": "",
    "network_size": "",
    "push_level": "",
    "replicas_sweep": "",
    "runcache": "",
    "runner": "run_config run_pair",
})
