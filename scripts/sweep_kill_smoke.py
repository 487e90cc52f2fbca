#!/usr/bin/env python3
"""Sweep kill drill: SIGKILL a parallel sweep mid-way, re-run, compare.

Runs ``repro run all --no-cache`` for reference tables, then starts
``repro run all --workers 4 --cache-dir DIR`` in its own process group
and, once over a third of its cells are stored, SIGKILLs the whole group
(supervisor and every cell attempt).  The re-run must serve exactly the
stored cells from disk, run every other cell once, fail none, and print
tables (stdout without timing and cache lines) byte-identical to the
reference.  A sweep that ends before the kill fails the drill, so it
never passes without testing anything.  Exit status 0 means it passed.
"""

import argparse
import collections
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

NOISE = ("completed in ", "run cache: ", "per-cell report written")


def sweep(args, *extra):
    return [sys.executable, "-m", "repro", "run", "all",
            "--scale", args.scale, "--seed", str(args.seed), *extra]


def tables(argv, timeout):
    out = subprocess.run(argv, check=True, timeout=timeout,
                         stdout=subprocess.PIPE, text=True).stdout
    return "".join(line for line in out.splitlines(keepends=True)
                   if not any(noise in line for noise in NOISE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "paper"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workdir", default="sweep-kill-smoke")
    parser.add_argument("--timeout", type=float, default=1800.0,
                        help="wall-clock budget for each phase (seconds)")
    args = parser.parse_args()

    cache = os.path.join(args.workdir, "cache")
    shutil.rmtree(cache, ignore_errors=True)  # the drill needs a cold cache
    os.makedirs(args.workdir, exist_ok=True)
    stored_cells = os.path.join(cache, "*", "*.json")
    parallel = sweep(args, "--workers", "4", "--cache-dir", cache)

    print(f"[1/4] uninterrupted --no-cache sweep (scale={args.scale})")
    reference = os.path.join(args.workdir, "reference-report.json")
    expected = tables(sweep(args, "--no-cache", "--report-json", reference),
                      args.timeout)
    with open(reference) as handle:
        total = sum(row["source"] == "run" for row in json.load(handle))

    print(f"[2/4] parallel sweep, SIGKILL its process group once "
          f"{total // 3 + 1} of {total} cells are stored")
    victim = subprocess.Popen(parallel, start_new_session=True,
                              stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + args.timeout
    while len(glob.glob(stored_cells)) <= total // 3:
        if victim.poll() is not None:
            print(f"FAIL: the sweep ended (status {victim.returncode}) "
                  "before the kill", file=sys.stderr)
            return 1
        if time.monotonic() > deadline:
            os.killpg(victim.pid, signal.SIGKILL)
            print("FAIL: too few cells stored in time", file=sys.stderr)
            return 1
        time.sleep(0.02)
    os.killpg(victim.pid, signal.SIGKILL)
    victim.wait()
    stored = len(glob.glob(stored_cells))
    print(f"      killed process group {victim.pid} "
          f"(status {victim.returncode}); {stored} of {total} cells stored")
    if victim.returncode != -signal.SIGKILL:
        print("FAIL: the sweep was not killed by SIGKILL", file=sys.stderr)
        return 1

    print("[3/4] re-run the same sweep")
    report = os.path.join(args.workdir, "rerun-report.json")
    observed = tables(parallel + ["--report-json", report], args.timeout)
    with open(report) as handle:
        rows = json.load(handle)
    sources = collections.Counter(row["source"] for row in rows)
    retried = [row["label"] for row in rows if row["attempts"] > 1]
    print(f"      sources {dict(sources)}; retried {retried}")
    if (sources["disk"] != stored or sources["run"] != total - stored
            or set(sources) - {"disk", "run", "memo"} or retried):
        print(f"FAIL: expected {stored} disk and {total - stored} run "
              "cells, each run once, none failed", file=sys.stderr)
        return 1

    print("[4/4] compare tables with the uninterrupted sweep")
    if observed != expected:
        print("FAIL: the re-run's tables differ from the uninterrupted "
              "sweep's", file=sys.stderr)
        return 1
    print(f"PASS: tables byte-identical ({len(expected)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
