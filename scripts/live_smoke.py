#!/usr/bin/env python3
"""Three-node live cluster drill: serve, join, put, propagate, audit.

The end-to-end proof that the live stack (``repro node``) runs the same
protocol core as the simulator, over real sockets:

1. launch one founding daemon (``repro node serve``) and two joiners
   (``repro node serve SEED``) as separate OS processes on localhost;
2. wait until every node reports the same three-member view;
3. ``put`` a replica at node A — the birth routes to the key's
   authority — and ``get`` it from every node: each must return the
   entry, and CUP's first-time update must leave the subscribers with a
   *local* copy (the second get reports ``hit``);
4. time 20 first gets of fresh keys, each at a node that is not the
   key's authority, and state their median and maximum: a miss costs
   what the network costs, so a median of 20 ms or more — what every
   miss cost while the daemon polled for its answer — fails the drill;
5. ``put`` a refresh and watch the new sequence number propagate to a
   subscriber without it asking again (push, not pull);
6. run the invariant checker's quiescence audit on every node — zero
   violations — then stop all three gracefully.

Exit status 0 means the drill passed.
"""

import argparse
import os
import socket
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.net.client import NodeClient  # noqa: E402


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(argv) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "node", *argv],
        env=env, cwd=REPO_ROOT,
    )


def wait_ready(address: str, deadline: float) -> dict:
    last_error = None
    while time.monotonic() < deadline:
        try:
            with NodeClient(address, timeout=2.0) as client:
                return client.info()
        except OSError as exc:
            last_error = exc
            time.sleep(0.1)
    raise TimeoutError(f"node {address} never came up ({last_error})")


def wait_members(addresses, deadline: float) -> None:
    want = set(addresses)
    views = []
    while time.monotonic() < deadline:
        views = []
        try:
            for address in addresses:
                with NodeClient(address, timeout=2.0) as client:
                    views.append(set(client.info()["members"]))
        except OSError:
            time.sleep(0.1)
            continue
        if all(view == want for view in views):
            return
        time.sleep(0.1)
    raise TimeoutError(f"membership never converged to {sorted(want)}: "
                       f"last views {[sorted(v) for v in views]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="wall-clock budget for the whole drill")
    parser.add_argument("--lifetime", type=float, default=120.0)
    args = parser.parse_args()
    deadline = time.monotonic() + args.timeout

    ports = [free_port() for _ in range(3)]
    addresses = [f"127.0.0.1:{port}" for port in ports]
    daemons = []
    failures = []
    try:
        print(f"[1/6] launching 3 daemons on {addresses}")
        daemons.append(spawn(["serve", "--port", str(ports[0])]))
        wait_ready(addresses[0], deadline)
        for port, address in zip(ports[1:], addresses[1:]):
            daemons.append(spawn(
                ["serve", "--port", str(port), addresses[0]]
            ))
            wait_ready(address, deadline)

        print("[2/6] waiting for a converged 3-member view everywhere")
        wait_members(addresses, deadline)

        print("[3/6] put at node A, get everywhere")
        key = "live-smoke/key"
        with NodeClient(addresses[0]) as client:
            put_reply = client.put(key, "replica-1", address="host-a",
                                   lifetime=args.lifetime)
        if put_reply.get("t") != "ok":
            failures.append(f"put failed: {put_reply}")
        authority = put_reply.get("authority")
        print(f"      authority for {key!r}: {authority}")
        for address in addresses:
            with NodeClient(address) as client:
                reply = client.get(key, timeout=10.0)
            entries = reply.get("entries", [])
            if not reply.get("ok") or not entries:
                failures.append(f"get at {address} failed: {reply}")
                continue
            print(f"      get@{address}: {len(entries)} entry(ies), "
                  f"hit={reply.get('hit')}")

        # CUP's first-time update must have left subscribers a local
        # copy: a repeat get is a hit (no second traversal).
        subscriber = next(a for a in addresses if a != authority)
        with NodeClient(subscriber) as client:
            repeat = client.get(key, timeout=5.0)
        if not repeat.get("hit"):
            failures.append(
                f"repeat get at subscriber {subscriber} was not a local "
                f"hit: {repeat}"
            )

        print("[4/6] time 20 first gets of fresh keys, each at a "
              "non-authority")
        clients = {address: NodeClient(address) for address in addresses}
        try:
            cold_ms = []
            for i in range(20):
                cold = f"live-smoke/cold-{i}"
                owner = clients[addresses[0]].put(
                    cold, "replica-1", address="host-a",
                    lifetime=args.lifetime)["authority"]
                # The birth must have landed before the miss is timed.
                clients[owner].get(cold, timeout=10.0)
                reader = next(a for a in addresses if a != owner)
                began = time.perf_counter()
                reply = clients[reader].get(cold, timeout=10.0)
                cold_ms.append((time.perf_counter() - began) * 1e3)
                if not reply.get("ok") or reply.get("hit"):
                    failures.append(f"first get of {cold!r} at {reader} "
                                    f"was not an answered miss: {reply}")
        finally:
            for client in clients.values():
                client.close()
        median_ms = statistics.median(cold_ms)
        print(f"      first get: median {median_ms:.2f} ms, "
              f"max {max(cold_ms):.2f} ms")
        if median_ms >= 20.0:
            failures.append(f"median first get took {median_ms:.2f} ms: "
                            "a miss is waiting on a timer again")

        print("[5/6] refresh the replica; the push must reach a "
              "subscriber unprompted")
        with NodeClient(addresses[0]) as client:
            client.put(key, "replica-1", address="host-a",
                       lifetime=args.lifetime)
        want_sequence = 2
        got = None
        while time.monotonic() < deadline:
            with NodeClient(subscriber) as client:
                reply = client.get(key, timeout=2.0)
            entries = reply.get("entries", [])
            got = max((e["sequence"] for e in entries), default=None)
            if reply.get("hit") and got is not None \
                    and got >= want_sequence:
                break
            time.sleep(0.2)
        else:
            failures.append(
                f"refresh (sequence {want_sequence}) never reached "
                f"subscriber {subscriber} as a local hit; last={got}"
            )
        print(f"      subscriber {subscriber} holds sequence {got} "
              f"as a local hit")

        print("[6/6] quiescence audit on every node, then stop")
        for address in addresses:
            with NodeClient(address) as client:
                audit = client.audit()
            if audit.get("ok") is not True:
                failures.append(
                    f"audit at {address} found violations: "
                    f"{audit.get('violations')}"
                )
            else:
                print(f"      audit@{address}: clean "
                      f"({audit.get('audits_run')} audits)")
        for address in reversed(addresses):
            with NodeClient(address) as client:
                client.stop()
        for daemon in daemons:
            daemon.wait(timeout=15.0)
            if daemon.returncode != 0:
                failures.append(
                    f"daemon pid {daemon.pid} exited {daemon.returncode}"
                )
        daemons.clear()
    finally:
        for daemon in daemons:
            daemon.kill()
            daemon.wait()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS: 3-node live cluster propagated updates end-to-end "
          "with a clean invariant audit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
