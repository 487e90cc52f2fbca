"""Sets of runs (``--runs N --out DIR``) and their comparison
(``--compare A B``).

A set is one directory holding ``<workload>.json``: the list of the
workload's run results, one fresh process per run, seeds ``seed``,
``seed+1``, …  Comparison follows the rule the driver applies: per
workload and end-to-end metric, both medians, each side's quartile spread
as a share of its median, and a verdict against the metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from stats import quartile_spread


def record(spec: dict, args, run_py: str) -> int:
    os.makedirs(args.out, exist_ok=True)
    workloads = [args.workload] if args.workload else [
        workload["name"] for workload in spec["workloads"]]
    for workload in workloads:
        runs = []
        for seed in range(args.seed, args.seed + args.runs):
            command = [
                sys.executable, run_py, "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in result["metrics"].items()
            ) + f"  failed={result['failed']}", flush=True)
        with open(os.path.join(args.out, f"{workload}.json"), "w") as handle:
            json.dump(runs, handle, indent=1)
    return 0


def _load(directory: str, workload: str):
    path = os.path.join(directory, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _values(runs, name: str):
    return [run["metrics"][name]["value"] for run in runs]


def compare(spec: dict, a_dir: str, b_dir: str) -> int:
    """Print B against A; exit 1 when any metric is worse than its bound."""
    worse = 0
    print(f"{'workload':<16} {'metric':<16} {'median A':>12} {'spread':>7} "
          f"{'median B':>12} {'spread':>7} {'B vs A':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = _load(a_dir, workload), _load(b_dir, workload)
        if a_runs is None or b_runs is None:
            continue
        failed = sum(run["failed"] for run in a_runs + b_runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = _values(a_runs, name), _values(b_runs, name)
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            a_spread, b_spread = quartile_spread(a), quartile_spread(b)
            change = b_mid / a_mid - 1.0
            loss = -change if metric["better"] == "higher" else change
            if loss > bound:
                verdict = "worse"
                worse += 1
            elif max(a_spread, b_spread) > bound and name != "setup_s":
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"{workload:<16} {name:<16} {a_mid:>12.6g} "
                  f"{a_spread:>6.1%} {b_mid:>12.6g} {b_spread:>6.1%} "
                  f"{change:>+8.1%} {bound:>6.0%}  {verdict}")
        if failed:
            print(f"{workload:<16} {failed} failed operations")
            worse += 1
    return 1 if worse else 0
