"""Smoke test for cupbench: every workload runs, in both trace modes, at a
half-second span on shrunken sizes; every declared metric comes back finite;
nothing is left behind — no file in the checkout, no child process, no
bound port — even when the benchmark process is killed.

Every run is a fresh process, as the driver makes them: the traced runs
patch classes of ``repro`` and must not do that to the test session.
"""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args, timeout=60):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _listening(address: str) -> bool:
    host, _, port = address.rpartition(":")
    try:
        socket.create_connection((host, int(port)), timeout=1.0).close()
    except OSError:
        return False
    return True


def _cluster_children() -> list:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if os.path.join(HERE, "cluster.py").encode() in cmdline:
            found.append(int(pid))
    return found


def _left_behind() -> list:
    extra = [name for name in os.listdir(HERE)
             if name.startswith(".") or name.endswith((".json", ".state"))]
    if os.path.exists(os.path.join(ROOT, ".cupbench_scratch")):
        extra.append(".cupbench_scratch")
    return extra


@pytest.fixture(scope="module")
def runs():
    """Every workload in both modes, three processes at a time (the live
    ones mostly wait)."""
    jobs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=3) as pool:
        done = list(pool.map(
            lambda job: _run("--workload", job[0], "--seed", "7",
                             "--seconds", "0.5", "--trace", str(job[1]),
                             "--smoke"),
            jobs,
        ))
    return dict(zip(jobs, done))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(runs, workload, trace):
    done = runs[(workload, trace)]
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric["name"]
        assert metric["name"] in done.stdout.split("\n{")[0]


def test_layers_a_workload_bypasses_report_zero_calls(runs):
    def layer(workload):
        done = runs[(workload, 1)]
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        return lambda name: metrics[name]["value"]

    for clean in ("sim_query_heavy", "sim_hop_heavy"):
        assert layer(clean)("core.recovery.stamps") == 0
        assert layer(clean)("core.channels.pumps") == 0
        assert 0 < layer(clean)("sim.unattributed_share") < 1
    adverse = layer("sim_adverse")
    assert adverse("core.recovery.stamps") > 0
    assert adverse("core.channels.pumps") > 0
    assert adverse("trace.overhead_share") < 1
    assert layer("live_read")("persistence.nodestore.saves") == 0
    assert layer("live_miss")("persistence.nodestore.saves") == 0
    assert layer("live_write")("persistence.nodestore.saves") > 0


def test_nothing_survives_the_runs(runs):
    assert _left_behind() == []
    assert _cluster_children() == []
    for (workload, _), done in runs.items():
        if workload.startswith("live_"):
            authority = done.stdout.split("authority ")[1].split(",")[0]
            assert not _listening(authority)


def test_a_broken_gate_exits_nonzero_and_prints_no_metric():
    broken = (
        "import sys; sys.argv = ['run.py', '--workload', 'sim_query_heavy',"
        " '--seed', '42', '--seconds', '0.2'];"
        f" sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, 'src')!r}];"
        " import simbench, run; simbench.GOLDEN_COST[1024] += 1;"
        " sys.exit(run.main())"
    )
    done = subprocess.run([sys.executable, "-c", broken], cwd=ROOT, timeout=60,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "golden pins moved" in done.stderr


def test_the_cluster_child_dies_with_its_parent():
    parent = (
        f"import sys, time; sys.path[:0] = [{HERE!r}];"
        " from cluster import ChildCluster;"
        f" c = ChildCluster({os.path.join(ROOT, 'src')!r}, None, {{}}, 0.0);"
        " print(' '.join(c.node_ids), flush=True); time.sleep(60)"
    )
    proc = subprocess.Popen([sys.executable, "-c", parent], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        node_ids = proc.stdout.readline().split()
        assert len(node_ids) == 4 and all(map(_listening, node_ids))
        assert len(_cluster_children()) == 1
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while _cluster_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _cluster_children() == []
        assert not any(map(_listening, node_ids))
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_sets_and_comparison(tmp_path):
    def write(directory, rates):
        directory.mkdir()
        runs = [{"correct": True, "attempted": 5, "failed": 0, "metrics": {
            m["name"]: {"value": rate if m["name"] == "ops_per_s" else 1.0,
                        "unit": m["unit"]} for m in SPEC["end_to_end"]}}
            for rate in rates]
        (directory / "sim_adverse.json").write_text(json.dumps(runs))

    write(tmp_path / "a", [100.0, 101.0, 99.0, 100.5, 99.5])
    write(tmp_path / "same", [100.2, 100.9, 99.1, 100.4, 99.6])
    write(tmp_path / "slow", [70.0, 71.0, 69.0, 70.5, 69.5])
    write(tmp_path / "noisy", [100.0, 140.0, 60.0, 120.0, 80.0])
    same = _run("--compare", str(tmp_path / "a"), str(tmp_path / "same"))
    assert same.returncode == 0 and "worse" not in same.stdout
    slow = _run("--compare", str(tmp_path / "a"), str(tmp_path / "slow"))
    assert slow.returncode == 1
    assert "worse" in [line.split()[-1] for line in slow.stdout.splitlines()
                       if " ops_per_s " in line]
    noisy = _run("--compare", str(tmp_path / "a"), str(tmp_path / "noisy"))
    assert "unresolved" in noisy.stdout
