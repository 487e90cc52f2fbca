#!/usr/bin/env python3
"""Kill-resume drill: SIGKILL the macro cell mid-run, resume, compare.

The end-to-end crash test behind ``docs/robustness.md``'s runbook and
the ``kill-resume-smoke`` CI job:

1. run the macro cell uninterrupted and record its summary;
2. start the same cell with auto-checkpointing, wait for the first
   checkpoint file to land, then ``SIGKILL`` the process — no warning,
   no cleanup, exactly what the OOM killer or a pre-empted runner does —
   and read the surviving file's header: it must say the run was cut
   mid-way (clock before the end, fewer events than the whole run);
3. resume from the latest checkpoint and finish;
4. assert the resumed summary is **byte-identical** to the
   uninterrupted one.

Exit status 0 means the drill passed.  Any checkpoint bug that loses,
duplicates, or reorders simulation state shows up as a byte diff here.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

from repro.persistence import checkpoint_info


def macro_cmd(args, *extra):
    return [
        sys.executable, "-m", "repro", "run", "macro",
        "--scale", args.scale,
        "--nodes", str(args.nodes),
        "--seed", str(args.seed),
        *extra,
    ]


def run_to_completion(args, *extra) -> int:
    """Run one macro phase to its end; return the event count it reports."""
    done = subprocess.run(
        macro_cmd(args, *extra), check=True, timeout=args.timeout,
        stdout=subprocess.PIPE, text=True,
    )
    sys.stdout.write(done.stdout)
    return int(re.search(r"completed in .*, (\d+) events\)", done.stdout)[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=4096)
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "paper"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--every-events", type=int, default=50_000,
        help="auto-checkpoint cadence (events); small enough that a "
             "checkpoint lands well before the run finishes",
    )
    parser.add_argument(
        "--workdir", default="kill-resume-smoke",
        help="where summaries and the checkpoint are written",
    )
    parser.add_argument(
        "--timeout", type=float, default=1800.0,
        help="wall-clock budget for each phase (seconds)",
    )
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    straight = os.path.join(args.workdir, "straight.json")
    resumed = os.path.join(args.workdir, "resumed.json")
    ckpt = os.path.join(args.workdir, "macro.ckpt")
    if os.path.exists(ckpt):
        os.unlink(ckpt)

    print(f"[1/4] uninterrupted run (n={args.nodes}, "
          f"scale={args.scale}, seed={args.seed})")
    straight_events = run_to_completion(args, "--summary-json", straight)

    print(f"[2/4] checkpointed run, SIGKILL after the first snapshot "
          f"(cadence {args.every_events} events)")
    victim = subprocess.Popen(macro_cmd(
        args, "--checkpoint", ckpt,
        "--checkpoint-every-events", str(args.every_events),
    ))
    deadline = time.monotonic() + args.timeout
    while not os.path.exists(ckpt):
        if victim.poll() is not None:
            print("FAIL: run finished before its first checkpoint — "
                  "lower --every-events so the kill lands mid-run",
                  file=sys.stderr)
            return 1
        if time.monotonic() > deadline:
            victim.kill()
            print("FAIL: no checkpoint appeared within the timeout",
                  file=sys.stderr)
            return 1
        time.sleep(0.05)
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    if victim.returncode != -signal.SIGKILL:
        print(f"FAIL: victim exited {victim.returncode}, not SIGKILL",
              file=sys.stderr)
        return 1
    info = checkpoint_info(ckpt)
    size = os.path.getsize(ckpt)
    print(f"      killed pid {victim.pid}; checkpoint survives at {ckpt}: "
          f"t={info['sim_now']:.1f}s of {info['sim_end']:.1f}s, "
          f"{info['events_processed']} of {straight_events} events, "
          f"{size} bytes = {size // info['num_nodes']} per node")
    if not (info["sim_now"] < info["sim_end"]
            and info["events_processed"] < straight_events):
        print("FAIL: the checkpoint's header does not describe a run cut "
              "mid-way", file=sys.stderr)
        return 1

    print("[3/4] resume from the latest checkpoint")
    resumed_events = run_to_completion(
        args, "--resume", "--checkpoint", ckpt, "--summary-json", resumed,
    )
    if resumed_events != straight_events:
        print(f"FAIL: resumed run ended at {resumed_events} events, the "
              f"uninterrupted one at {straight_events}", file=sys.stderr)
        return 1

    print("[4/4] compare summaries byte for byte")
    with open(straight, "rb") as handle:
        expected = handle.read()
    with open(resumed, "rb") as handle:
        observed = handle.read()
    if expected != observed:
        a = json.loads(expected)
        b = json.loads(observed)
        diff = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
        print(f"FAIL: summaries differ in fields: {diff}", file=sys.stderr)
        return 1
    print(f"PASS: resumed summary is byte-identical "
          f"({len(expected)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
