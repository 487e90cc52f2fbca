"""A process imports what it touches: the package namespaces are lazy.

Every name importable from a package ``__init__`` still is, and is the
leaf module's own object; but a live-node process no longer imports the
simulator, the workloads, the scenarios, the harnesses or numpy to get at
``repro.net.daemon`` — 57 ``repro`` modules and 38 MiB before, 33 and
24 MiB now.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGES = [
    "repro", "repro.core", "repro.experiments", "repro.invariants",
    "repro.metrics", "repro.net", "repro.overlay", "repro.persistence",
    "repro.replicas", "repro.scenarios", "repro.sim", "repro.workload",
]
#: What the daemon's import closure must not hold (module names or
#: prefixes).  CI runs the same check as a one-liner on every Python.
FORBIDDEN = (
    "numpy", "repro.sim.random", "repro.core.protocol", "repro.workload.",
    "repro.scenarios.", "repro.invariants.", "repro.experiments.runner",
    "repro.replicas.replica",
)


def _fresh_interpreter(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=60, cwd=str(Path(SRC).parent),
    )


def _forbidden_in(modules):
    return sorted(
        name for name in modules
        if any(name == item or (item.endswith(".") and name.startswith(item))
               for item in FORBIDDEN)
    )


def test_the_daemon_imports_neither_numpy_nor_the_simulators_world():
    done = _fresh_interpreter(
        "-c", "import sys, repro.net.daemon; print('\\n'.join(sys.modules))")
    assert done.returncode == 0, done.stderr
    modules = done.stdout.split()
    assert "repro.net.daemon" in modules and "repro.core.node" in modules
    assert _forbidden_in(modules) == []
    assert len([m for m in modules if m.startswith("repro")]) <= 33


def test_node_verbs_import_what_they_run():
    # ``repro node ...`` is how a real daemon (and its client) starts.
    done = _fresh_interpreter(
        "-X", "importtime", "-m", "repro", "node", "info", "--help")
    assert done.returncode == 0 and "usage: repro node info" in done.stdout
    imported = [line.rpartition("|")[2].strip()
                for line in done.stderr.splitlines()]
    assert "repro.cli" in imported
    assert _forbidden_in(imported) == []
    assert "repro.experiments.executor" not in imported


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_the_leaf_modules_own_object(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert exported == sorted(set(exported)) and exported
    assert set(exported) <= set(dir(module))
    starred: dict = {}
    exec(f"from {package} import *", starred)
    assert {name for name in starred if name != "__builtins__"} == set(
        exported)
    for name in exported:
        value = getattr(module, name)
        assert value is starred[name]
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            # Defined under this package (``repro`` spans all of them),
            # and the very object the defining module holds.
            assert home.startswith(package + ".")
            assert getattr(sys.modules[home], name) is value
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        module.nonesuch


def test_sub_modules_stay_reachable_as_attributes():
    import repro

    assert repro.core.recovery.RecoveryManager.__module__ == (
        "repro.core.recovery")
    assert repro.persistence.nodestore is sys.modules[
        "repro.persistence.nodestore"]
    assert repro.workload.ZipfKeys is repro.workload.keyspace.ZipfKeys
    assert repro.CupNetwork is repro.core.protocol.CupNetwork
