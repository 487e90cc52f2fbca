"""The cluster under test: four production ``LiveNode``s on one asyncio loop.

Two hosts share :func:`serve`:

* :class:`ChildCluster` runs it in a **child process** (this file run as a
  script).  End-to-end numbers are always taken this way, so the load
  generator in the parent and the cluster never share an interpreter lock
  (they do share a processor: see ``livebench.run``).
  The control channel is JSON lines on the child's stdin/stdout; the child
  stops its nodes and exits when stdin reaches EOF, so it cannot outlive a
  parent that died.
* :class:`ThreadCluster` runs it on a **thread of the benchmark process**,
  which is the only way wrappers installed by ``spans.py`` can see the
  daemon's calls.  Numbers taken this way are per-layer only.

The nodes talk over real loopback TCP on ephemeral ports: node ids are
``127.0.0.1:<port>``, so the Chord ring differs from boot to boot and the
load generator picks its keys by route (``livebench.py``).
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import resource
import socket
import subprocess
import sys
import threading
import time

NODES = 4
BOOT_TIMEOUT = 30.0


async def serve(requests: "asyncio.Queue", reply, state_root, config,
                min_arc):
    """Boot the cluster, answer control requests until ``None`` arrives.

    ``config`` holds ``LiveNodeConfig`` fields that differ from the
    daemon's defaults; with a ``state_root`` the nodes are durable, each
    in its own state dir under it.  A node's id is its port and so its
    place on the Chord ring: a free port whose node would leave some node
    owning less than ``min_arc`` of the ring is passed over, so the
    generator can find keys owned by every node.
    """
    from repro.net.daemon import LiveNode, LiveNodeConfig

    # A snapshot stalls the whole loop.  In production each node has a
    # process of its own and stalls for its own snapshot only; here four
    # share a loop, and a node whose timer falls due during another's
    # snapshot fires right behind it and stays there.  Durable nodes are
    # therefore started a quarter of the snapshot interval apart: the loop
    # stalls for one snapshot at a time, and a run ends long before the
    # timers could drift into a back-to-back convoy.
    spacing = 0.0
    if state_root is not None:
        spacing = LiveNodeConfig(**config).snapshot_interval / NODES
    loop = asyncio.get_running_loop()
    first = loop.time()
    nodes = []
    try:
        for index in range(NODES):
            await asyncio.sleep(first + index * spacing - loop.time())
            for _ in range(200):
                port = _free_port()
                ids = [n.node_id for n in nodes] + [f"127.0.0.1:{port}"]
                if min_arc and _smallest_arc(ids) < min_arc:
                    continue
                node = LiveNode(LiveNodeConfig(
                    port=port,
                    peers=(nodes[0].node_id,) if nodes else (),
                    quiet=True,
                    state_dir=(None if state_root is None else
                               os.path.join(state_root, f"node{index}")),
                    **config,
                ))
                try:
                    await node.start()
                except OSError as exc:
                    if exc.errno != errno.EADDRINUSE:
                        raise
                    continue  # the port was taken in between
                break
            else:
                raise RuntimeError("no port gave every node a usable arc")
            nodes.append(node)
        reply({"node_ids": [node.node_id for node in nodes]})
        while True:
            request = await requests.get()
            if request is None:
                return
            # The only request is "stats": what the production client ops
            # (info, audit) cannot tell the generator about this process.
            reply({
                "cpu_s": _cpu_seconds(),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
    finally:
        for node in nodes:
            node.request_stop()
        for node in nodes:
            await node.serve_forever()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _smallest_arc(node_ids) -> float:
    """The smallest share of the key space any of the nodes would own."""
    from repro.overlay.chord import ChordOverlay

    ring = ChordOverlay.build(node_ids, bits=32)
    probes = 1000
    owned = dict.fromkeys(node_ids, 0)
    for index in range(probes):
        owned[ring.authority(f"arc-probe/{index}")] += 1
    return min(owned.values()) / probes


def _cpu_seconds() -> float:
    # The loop's own CPU: the whole process when it has one to itself,
    # its thread when it shares the benchmark's.
    if threading.current_thread() is threading.main_thread():
        return time.process_time()
    return time.thread_time()


class ChildCluster:
    """The cluster in a child process (end-to-end runs)."""

    def __init__(self, src_dir, state_root, config, min_arc):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             json.dumps([state_root, config, min_arc])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        try:
            self.node_ids = self._read()["node_ids"]
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"cluster child exited (code {self._proc.poll()}) "
                "before answering"
            )
        return json.loads(line)

    def stats(self) -> dict:
        self._proc.stdin.write(b"stats\n")
        self._proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        proc = self._proc
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class ThreadCluster:
    """The cluster on a thread of this process (traced runs)."""

    def __init__(self, src_dir, state_root, config, min_arc):
        self._replies: list = []
        self._answered = threading.Condition()
        self._loop = None
        self._requests = None
        self._error = None
        self._thread = threading.Thread(
            target=self._run, args=(state_root, config, min_arc),
            name="cupbench-cluster", daemon=True,
        )
        self._thread.start()
        try:
            self.node_ids = self._take()["node_ids"]
        except BaseException:
            self.close()
            raise

    def _run(self, *options) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._requests = asyncio.Queue()
            await serve(self._requests, self._reply, *options)

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced to the waiting caller
            self._error = exc
        with self._answered:
            self._answered.notify_all()

    def _reply(self, message: dict) -> None:
        with self._answered:
            self._replies.append(message)
            self._answered.notify_all()

    def _take(self) -> dict:
        deadline = time.monotonic() + BOOT_TIMEOUT
        with self._answered:
            while not self._replies:
                if self._error is not None or not self._thread.is_alive():
                    raise RuntimeError(
                        f"cluster thread stopped: {self._error!r}")
                if not self._answered.wait(deadline - time.monotonic()):
                    raise TimeoutError("cluster thread did not answer")
            return self._replies.pop(0)

    def stats(self) -> dict:
        self._loop.call_soon_threadsafe(self._requests.put_nowait, "stats")
        return self._take()

    def close(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._requests.put_nowait, None)
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("cluster thread did not stop")


def _child_main(options: list) -> None:
    out = sys.stdout.buffer

    def reply(message: dict) -> None:
        out.write(json.dumps(message).encode() + b"\n")
        out.flush()

    async def main():
        loop = asyncio.get_running_loop()
        requests: asyncio.Queue = asyncio.Queue()

        def pump_stdin():
            # EOF (parent closed the pipe or died) ends the cluster.
            for line in sys.stdin.buffer:
                loop.call_soon_threadsafe(requests.put_nowait, line.strip())
            loop.call_soon_threadsafe(requests.put_nowait, None)

        threading.Thread(target=pump_stdin, daemon=True).start()
        await serve(requests, reply, *options)

    asyncio.run(main())


if __name__ == "__main__":
    _child_main(json.loads(sys.argv[1]))
