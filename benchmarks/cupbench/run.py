#!/usr/bin/env python3
"""cupbench: one benchmark for the simulator and the live cluster.

One run of one workload, in a fresh process::

    python3 benchmarks/cupbench/run.py --workload live_write --seed 7 \\
        --seconds 12 --trace 0

prints every end-to-end metric by name with its unit (``--trace 1``: every
per-layer metric, taken with timing wrappers installed), after the
workload's correctness gate has passed.  The last line of standard output
is the result as one JSON object.  A failed gate prints the reason on
standard error, no metric, and exits 1.

A set of runs and a comparison of two sets::

    python3 benchmarks/cupbench/run.py --runs 10 --out /tmp/set-a
    python3 benchmarks/cupbench/run.py --compare /tmp/set-a /tmp/set-b

Names, units, directions and bounds come from ``BENCHMARK.json`` at the
root of the checkout; see ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import ROOT, SRC, GateError


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(spec: dict, args) -> int:
    # The system under test is imported only here, so --compare works on
    # a machine that has the result files and nothing else.
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"cupbench: nothing to measure: no {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload.startswith("sim_"):
        import simbench as bench
    else:
        import livebench as bench

    traced = bool(args.trace)
    try:
        result = bench.run(args.workload, args.seed, args.seconds, traced,
                           args.smoke)
    except GateError as exc:
        print(f"cupbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if traced else "end_to_end"]
    unknown = set(result.metrics) - {metric["name"] for metric in declared}
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    print(f"cupbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' (smoke sizes)' if args.smoke else ''}")
    for note in result.notes:
        print(f"  {note}")
    print(f"  attempted {result.attempted}, failed {result.failed}")
    metrics = {}
    for metric in declared:
        # A layer this workload never enters reports zero calls and time.
        value = float(result.metrics.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<42} {value:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed span")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes, for the smoke test only")
    parser.add_argument("--runs", type=int, metavar="N",
                        help="run every workload N times (seeds seed..seed+N-1)")
    parser.add_argument("--out", metavar="DIR",
                        help="where --runs writes its set")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sets written by --runs")
    args = parser.parse_args(argv)

    if args.compare:
        import sets

        return sets.compare(spec, *args.compare)
    if args.runs is not None:
        if not args.out:
            parser.error("--runs needs --out DIR")
        import sets

        return sets.record(spec, args, os.path.abspath(__file__))
    if not args.workload:
        parser.error("one of --workload, --runs or --compare is required")
    return run_workload(spec, args)


if __name__ == "__main__":
    sys.exit(main())
