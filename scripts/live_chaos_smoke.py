#!/usr/bin/env python3
"""Live cluster crash drill: kill -9, restart warm, verify convergence.

The end-to-end proof of the live stack's crash durability, run against
real processes and real sockets:

1. launch a 4-node localhost cluster — three daemons with a
   ``--state-dir`` (durable) and one stateless joiner (the cold-restart
   control);
2. put a handful of keys, get them everywhere so subscribers hold
   local copies, and record the victim's pre-crash view of one key it
   is *not* the authority for (extra keys are seeded until one also
   avoids the stateless node, whose cold crash forgets its own
   replica directory); then refresh that key and wait for the victim's
   next save, which appends it to the log beside the base;
3. leave the cluster idle for twice its suspect-plus-grace window and
   require that no node declared a healthy peer dead (Chord neighbour
   sets are one-sided, so a node watches fingers that never send to
   it); then open invariant hazard windows on the survivors,
   ``kill -9`` the durable victim and wait for suspicion to evict it
   from every surviving member view;
4. restart the victim from its state dir alone (no seed peers): it
   must rejoin warm — full member view reconverges everywhere, every
   survivor holds the victim alive at a higher incarnation than before
   the kill, the restarted daemon reports ``rejoined`` with restored
   keys, and a
   repeat get of the pre-crash key is a *local hit* (no network pull)
   at the *refreshed* sequence or later — state that was only ever in a
   log record (the drill prints how many it replayed);
5. repeat the kill/restart on the stateless node (cold path): it
   rejoins via a seed and serves gets again, proving the drill works
   without ``--state-dir`` too;
6. quiesce (all recovery gaps closed), close the hazard windows, run
   the invariant audit on every node — zero violations — and stop the
   cluster gracefully.

Exit status 0 means the drill passed.  Per-node daemon logs land in
``--workdir`` (kept on failure; CI uploads them as an artifact).
"""

import argparse
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.net.client import NodeClient  # noqa: E402

KEYS = ["chaos/alpha", "chaos/beta", "chaos/gamma"]
LIFETIME = 600.0
KEEPALIVE_PERIOD = 0.5
KEEPALIVE_MISSES = 3
#: Silence until a suspicion (one period more at the tick's granularity)
#: plus the grace a suspect row gets before it is declared dead.
SUSPECT_AND_GRACE = (KEEPALIVE_PERIOD * (KEEPALIVE_MISSES + 1)
                     + KEEPALIVE_PERIOD * KEEPALIVE_MISSES)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Cluster:
    """Process bookkeeping: spawn daemons, log to files, kill hard."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.procs = {}  # address -> Popen
        self.logs = {}  # address -> log path

    def spawn(self, address: str, argv) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        log_path = self.logs.setdefault(
            address,
            os.path.join(self.workdir,
                         f"node-{address.replace(':', '-')}.log"),
        )
        log = open(log_path, "ab")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "node", *argv],
                env=env, cwd=REPO_ROOT, stdout=log, stderr=log,
            )
        finally:
            log.close()
        self.procs[address] = proc
        return proc

    def kill9(self, address: str) -> None:
        proc = self.procs.pop(address)
        proc.kill()  # SIGKILL: no leaving frame, no final snapshot
        proc.wait()

    def reap(self):
        for proc in self.procs.values():
            proc.kill()
            proc.wait()
        self.procs.clear()

    def tails(self, lines: int = 30):
        for address, path in sorted(self.logs.items()):
            print(f"--- last {lines} lines of {path} ---", file=sys.stderr)
            try:
                with open(path, "r", errors="replace") as handle:
                    for line in handle.readlines()[-lines:]:
                        print(f"  {line.rstrip()}", file=sys.stderr)
            except OSError as exc:
                print(f"  (unreadable: {exc})", file=sys.stderr)


def rpc(address: str, call, timeout: float = 10.0):
    with NodeClient(address, timeout=timeout) as client:
        return call(client)


def wait_ready(address: str, deadline: float) -> dict:
    last_error = None
    while time.monotonic() < deadline:
        try:
            return rpc(address, lambda c: c.info(), timeout=2.0)
        except OSError as exc:
            last_error = exc
            time.sleep(0.1)
    raise TimeoutError(f"node {address} never came up ({last_error})")


def wait_members(addresses, want, deadline: float) -> None:
    want = set(want)
    views = []
    while time.monotonic() < deadline:
        views = []
        try:
            for address in addresses:
                info = rpc(address, lambda c: c.info(), timeout=2.0)
                views.append(set(info["members"]))
        except OSError:
            time.sleep(0.1)
            continue
        if all(view == want for view in views):
            return
        time.sleep(0.1)
    raise TimeoutError(
        f"membership never converged to {sorted(want)}: "
        f"last views {[sorted(v) for v in views]}"
    )


def rows_for(addresses, member) -> dict:
    """Each node's peer-table row for ``member``: (incarnation, status)."""
    rows = {}
    for address in addresses:
        row = rpc(address, lambda c: c.info())["peers"].get(member, {})
        rows[address] = (row.get("incarnation", -1), row.get("status"))
    return rows


def wait_quiesced(addresses, deadline: float) -> None:
    """All recovery gaps closed everywhere (counters reconciled)."""
    last = {}
    while time.monotonic() < deadline:
        last = {}
        try:
            for address in addresses:
                info = rpc(address, lambda c: c.info(), timeout=2.0)
                last[address] = info.get("open_gaps", 0)
        except OSError:
            time.sleep(0.1)
            continue
        if all(gaps == 0 for gaps in last.values()):
            return
        time.sleep(0.2)
    raise TimeoutError(f"recovery gaps never closed: {last}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=180.0,
                        help="wall-clock budget for the whole drill")
    parser.add_argument("--workdir", default=None,
                        help="directory for per-node logs and state "
                             "dirs (default: a temp dir)")
    parser.add_argument("--keep-workdir", action="store_true",
                        help="keep the workdir even on success")
    args = parser.parse_args()
    deadline = time.monotonic() + args.timeout

    workdir = args.workdir or tempfile.mkdtemp(prefix="cup-chaos-")
    os.makedirs(workdir, exist_ok=True)
    print(f"workdir (logs + state dirs): {workdir}")

    ports = [free_port() for _ in range(4)]
    addresses = [f"127.0.0.1:{port}" for port in ports]
    durable = addresses[:3]  # founder + 2 durable joiners
    cold = addresses[3]  # the stateless control node
    state_dirs = {
        address: os.path.join(workdir, f"state-{port}")
        for address, port in zip(durable, ports[:3])
    }
    tuning = [
        "--keepalive-period", str(KEEPALIVE_PERIOD),
        "--keepalive-misses", str(KEEPALIVE_MISSES),
        "--pfu-timeout", "1.0",
    ]

    def durable_args(address, port):
        return tuning + ["--port", str(port), "--state-dir",
                         state_dirs[address], "--snapshot-interval", "0.5"]

    cluster = Cluster(workdir)
    failures = []
    try:
        print(f"[1/8] launching 4 daemons on {addresses} "
              f"(3 durable, 1 stateless)")
        cluster.spawn(durable[0],
                      ["serve"] + durable_args(durable[0], ports[0]))
        wait_ready(durable[0], deadline)
        for address, port in zip(durable[1:], ports[1:3]):
            cluster.spawn(
                address,
                ["serve"] + durable_args(address, port) + [durable[0]],
            )
            wait_ready(address, deadline)
        cluster.spawn(cold, ["serve"] + tuning
                      + ["--port", str(ports[3]), durable[0]])
        wait_ready(cold, deadline)
        wait_members(addresses, addresses, deadline)

        print("[2/8] seeding keys and spreading local copies")
        victim = durable[1]
        authorities = {}
        seeded = []

        def seed(key):
            reply = rpc(durable[0],
                        lambda c: c.put(key, f"replica-{key}",
                                        address="origin",
                                        lifetime=LIFETIME))
            if reply.get("t") != "ok":
                failures.append(f"put {key} failed: {reply}")
            authorities[key] = reply.get("authority")
            seeded.append(key)

        def pick(avoid):
            return next(
                (k for k in seeded if authorities.get(k) != avoid), None
            )

        for key in KEYS:
            seed(key)
        # The warm check needs a key the victim is not the authority
        # for, and the cold drill needs one the stateless node is not
        # the authority for (a crashed stateless authority forgets its
        # replica directory, by design).  Seed extras until both exist.
        extra = 0
        while (pick(victim) is None or pick(cold) is None) and extra < 8:
            seed(f"chaos/extra-{extra}")
            extra += 1
        for address in addresses:
            for key in seeded:
                reply = rpc(address,
                            lambda c, k=key: c.get(k, timeout=10.0))
                if not reply.get("ok"):
                    failures.append(f"get {key}@{address} failed: {reply}")
        if failures:
            raise RuntimeError("seeding failed; aborting the drill")

        check_key = pick(victim)
        cold_key = pick(cold)
        if check_key is None or cold_key is None:
            failures.append(
                f"no check key clear of victim {victim} and stateless "
                f"node {cold}: {authorities}"
            )
            raise RuntimeError("cannot pick check keys")
        before = rpc(victim, lambda c: c.get(check_key, timeout=5.0))
        if not before.get("hit"):
            failures.append(
                f"victim {victim} has no local copy of {check_key} "
                f"before the crash: {before}"
            )
        pre_seq = max((e["sequence"] for e in before.get("entries", [])),
                      default=None)
        print(f"      victim={victim} check_key={check_key!r} "
              f"(authority {authorities[check_key]}) "
              f"pre-crash sequence={pre_seq}")
        # Let the write-behind cadence (0.5s) capture the seeded state.
        time.sleep(1.5)

        # Refresh the check key and wait for the save that holds it: by
        # now the store has its base, so what the victim's disk gains is
        # one appended log record.  The warm restart must come back at
        # this sequence, not the seeded one.
        saves = rpc(victim, lambda c: c.info())["persistence"]["saves"]
        rpc(durable[0], lambda c: c.put(
            check_key, f"replica-{check_key}", address="origin",
            lifetime=LIFETIME, event="refresh"))
        refreshed_seq, saved = pre_seq, None
        while time.monotonic() < deadline:
            reply = rpc(victim, lambda c: c.get(check_key, timeout=5.0))
            refreshed_seq = max(
                (e["sequence"] for e in reply.get("entries", [])),
                default=None)
            saved = rpc(victim, lambda c: c.info())["persistence"]
            if (refreshed_seq or 0) > (pre_seq or 0) \
                    and saved["saves"] > saves:
                break
            time.sleep(0.05)
        else:
            raise TimeoutError(
                f"refresh of {check_key} never reached {victim}'s disk: "
                f"sequence {refreshed_seq}, store {saved}")
        print(f"      refreshed to sequence {refreshed_seq}; victim's last "
              f"save was a {saved['last_save_kind']} write "
              f"({saved['log_records']} log records, {saved['log_bytes']} B "
              f"beside a {saved['base_bytes']} B base)")

        quiet = 2 * SUSPECT_AND_GRACE
        print(f"[3/8] {quiet:.1f}s quiet window: nobody may declare a "
              "healthy peer dead")
        time.sleep(quiet)
        declared = {
            address: rpc(address, lambda c: c.info())["livenode"][
                "peers_declared_dead"]
            for address in addresses
        }
        if any(declared.values()):
            failures.append(f"peers declared dead in an idle cluster, "
                            f"per node: {declared}")
        survivors = [a for a in addresses if a != victim]
        held = rows_for(survivors, victim)
        print(f"      peers declared dead, per node: {declared}")
        print(f"      survivors hold {victim} at {held}; opening hazard "
              f"windows on survivors, then kill -9 {victim}")
        for address in survivors:
            reply = rpc(address,
                        lambda c: c.hazard(["loss"], duration=120.0))
            if reply.get("t") != "ok":
                failures.append(f"hazard open at {address}: {reply}")
        cluster.kill9(victim)
        wait_members(survivors, survivors, deadline)
        print(f"      survivors evicted {victim}")

        print(f"[4/8] restarting {victim} warm from its state dir "
              "(no seed peers)")
        cluster.spawn(victim,
                      ["serve"] + durable_args(victim, ports[1]))
        info = wait_ready(victim, deadline)
        if not info.get("rejoined"):
            failures.append(
                f"restarted {victim} did not report a warm rejoin: "
                f"{info.get('rejoined')!r}"
            )
        restored = info.get("livenode", {}).get("state_restored_keys", 0)
        if restored < 1:
            failures.append(
                f"restarted {victim} restored {restored} keys"
            )
        wait_members(addresses, addresses, deadline)
        rows = held
        while time.monotonic() < deadline:
            rows = rows_for(survivors, victim)
            if all(rows[a][1] == "alive" and rows[a][0] > held[a][0]
                   for a in survivors):
                break
            time.sleep(0.1)
        else:
            failures.append(f"survivors never held {victim} alive above "
                            f"its pre-kill incarnation: {held} -> {rows}")
        for address in survivors:
            print(f"      {address} holds {victim} at incarnation "
                  f"{held[address][0]} before the kill, "
                  f"{rows[address][0]} ({rows[address][1]}) after")
        store = info.get("persistence") or {}
        replayed = store.get("replayed", 0)
        print(f"      member view reconverged; {restored} keys restored "
              f"from the base"
              + (f" + {replayed} replayed log records" if replayed
                 else " alone (the log had been folded in)")
              + f"; dropped at load: {store.get('torn_dropped')} torn, "
                f"{store.get('stale_dropped')} stale")

        print("[5/8] repeat get at the restarted node must be a local "
              "hit at the refreshed sequence")
        after = rpc(victim, lambda c: c.get(check_key, timeout=5.0))
        post_seq = max((e["sequence"] for e in after.get("entries", [])),
                       default=None)
        if not after.get("ok") or not after.get("hit"):
            failures.append(
                f"get {check_key}@{victim} after warm restart was not "
                f"a local hit: {after}"
            )
        elif post_seq is None or post_seq < refreshed_seq:
            failures.append(
                f"restored sequence regressed: {post_seq} < "
                f"{refreshed_seq} (seeded at {pre_seq})"
            )
        else:
            print(f"      local hit at sequence {post_seq}")

        print(f"[6/8] cold drill: kill -9 the stateless node {cold}, "
              "restart via seed")
        cluster.kill9(cold)
        others = [a for a in addresses if a != cold]
        wait_members(others, others, deadline)
        cluster.spawn(cold, ["serve"] + tuning
                      + ["--port", str(ports[3]), durable[0]])
        info = wait_ready(cold, deadline)
        if info.get("rejoined"):
            failures.append(
                f"stateless node {cold} claims a warm rejoin: {info}"
            )
        wait_members(addresses, addresses, deadline)
        reply = rpc(cold, lambda c: c.get(cold_key, timeout=10.0))
        if not reply.get("ok"):
            failures.append(
                f"get {cold_key}@{cold} after cold restart failed: "
                f"{reply}"
            )

        print("[7/8] quiescing: waiting for recovery gaps to close, "
              "then closing hazard windows")
        wait_quiesced(addresses, deadline)
        for address in addresses:
            try:
                rpc(address, lambda c: c.hazard([], action="close"))
            except OSError as exc:
                failures.append(f"hazard close at {address}: {exc}")

        print("[8/8] invariant audit everywhere, then graceful stop")
        for address in addresses:
            audit = rpc(address, lambda c: c.audit())
            if audit.get("ok") is not True:
                failures.append(
                    f"audit at {address} found violations: "
                    f"{audit.get('violations')}"
                )
            else:
                print(f"      audit@{address}: clean "
                      f"({audit.get('audits_run')} audits)")
        for address in reversed(addresses):
            rpc(address, lambda c: c.stop())
        for address, proc in list(cluster.procs.items()):
            proc.wait(timeout=15.0)
            if proc.returncode != 0:
                failures.append(
                    f"daemon {address} exited {proc.returncode}"
                )
        cluster.procs.clear()
    except (TimeoutError, RuntimeError, OSError) as exc:
        failures.append(str(exc))
    finally:
        cluster.reap()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        cluster.tails()
        print(f"logs kept in {workdir}", file=sys.stderr)
        return 1
    print("PASS: kill -9 -> warm restart reconverged with local hits, "
          "cold restart recovered via seed, zero audit violations")
    if not args.keep_workdir and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
