"""Versioned, fingerprinted snapshots of a running simulation.

A checkpoint captures the *complete* deterministic state of a
:class:`~repro.core.protocol.CupNetwork` mid-run: the engine's event
heap, clock and tie-break counter; every buffered random stream with its
block position; the transport's links, drop/fault rules and counters;
each node's cache, authority index, channels and recovery state machine
(retransmission buffers, watermarks, armed backoff timers); keep-alive
deadlines; the compiled scenario runtime with its pending phase
transitions; and all metrics counters.  Restoring and finishing the run
produces a :class:`~repro.metrics.collector.MetricsSummary` byte-for-byte
identical to an uninterrupted run — the referee tests in
``tests/test_checkpoint.py`` hold that line for every built-in scenario,
chaos included.

The serialized form is a one-line JSON header (format version, code
fingerprint, clock) followed by a pickle of the whole network object
graph.  Two protections gate a load:

* **Format version** — the header's ``format`` must match this module's,
  so stale files fail loudly instead of unpickling garbage.
* **Code fingerprint** — the same
  :func:`repro.experiments.runcache.code_fingerprint` that keys the run
  cache.  A checkpoint is only as deterministic as the code that wrote
  it; resuming under changed simulation code would silently produce a
  hybrid run, so mismatches raise :class:`FingerprintMismatch` (override
  with ``verify_fingerprint=False`` for forensics).

Checkpoint files are written atomically (temp file + ``os.replace``), so
the configured path always holds a complete, restorable snapshot — a
``kill -9`` mid-write cannot corrupt the previous checkpoint.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import tempfile
from typing import TYPE_CHECKING, List, Optional

from repro.experiments import runcache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import CupNetwork

MAGIC = b"CUPCKPT\n"
#: Version of the container (:func:`pack`), shared by every file kind.
FORMAT_VERSION = 1

#: Auto-checkpoint cadence when a path is configured without one:
#: roughly every couple of seconds of wall time on the macro cell,
#: cheap enough to be forgotten and frequent enough that a kill loses
#: little.
DEFAULT_EVERY_EVENTS = 100_000


class CheckpointError(RuntimeError):
    """Base class for checkpoint save/load failures."""


class CheckpointFormatError(CheckpointError):
    """The blob is not a checkpoint, or its format version is unknown."""


class FingerprintMismatch(CheckpointError):
    """The checkpoint was written by different simulation code."""


# ----------------------------------------------------------------------
# The container: magic + one-line JSON header + pickle, written atomically
# ----------------------------------------------------------------------


def pack(magic: bytes, header: dict, obj) -> bytes:
    """One blob: ``magic``, a sorted-keys JSON header line, ``obj`` pickled.

    The format version and the code fingerprint are stamped here, so
    every file this package writes carries both load gates.
    """
    stamped = dict(
        header, format=FORMAT_VERSION, fingerprint=runcache.code_fingerprint()
    )
    head = json.dumps(stamped, sort_keys=True).encode("utf-8")
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return magic + head + b"\n" + payload


def _describe(path) -> str:
    """``" in <path>"`` when a file is known, ``""`` for raw blobs."""
    return f" in {os.fspath(path)}" if path is not None else ""


def _split(blob: bytes, magic: bytes, kind: str, path=None):
    where = _describe(path)
    if not blob.startswith(magic):
        raise CheckpointFormatError(
            f"not a CUP {kind}{where} (bad magic bytes)"
        )
    end = blob.find(b"\n", len(magic))
    if end < 0:
        # Either the file was truncated inside the header line, or the
        # header exceeds the reader's buffer (peek_header reads a
        # bounded prefix) — both used to surface as a bare ValueError.
        raise CheckpointFormatError(
            f"corrupt {kind}{where}: no header terminator within "
            f"the first {len(blob)} bytes (truncated file or oversized "
            "header)"
        )
    try:
        header = json.loads(blob[len(magic):end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointFormatError(
            f"corrupt {kind} header{where}: {exc}"
        ) from None
    if not isinstance(header, dict):
        raise CheckpointFormatError(
            f"corrupt {kind} header{where}: expected a JSON object, "
            f"got {type(header).__name__}"
        )
    return header, blob[end + 1:]


def unpack(blob: bytes, magic: bytes, kind: str,
           verify_fingerprint: bool = True, path=None):
    """Inverse of :func:`pack` with the load gates applied.

    Returns ``(header, obj)``.  ``kind`` names the file type in error
    messages; ``path``, when known, is named too.
    """
    header, payload = _split(blob, magic, kind, path)
    where = _describe(path)
    version = header.get("format")
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"{kind} format {version!r}{where} is not supported "
            f"(this code reads format {FORMAT_VERSION})"
        )
    if verify_fingerprint:
        current = runcache.code_fingerprint()
        stamped = header.get("fingerprint")
        if stamped != current:
            raise FingerprintMismatch(
                f"{kind} was written by different code (fingerprint "
                f"{stamped} != current {current}); loading it would "
                "splice two code versions into one run"
            )
    try:
        obj = pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, ValueError,
            AttributeError, ImportError, IndexError) as exc:
        # A truncated or bit-rotted payload surfaces as any of these
        # depending on where the stream breaks; all of them mean the
        # same thing to a caller: this file is not restorable.
        raise CheckpointFormatError(
            f"corrupt {kind} payload{where}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return header, obj


def peek_header(path, magic: bytes, kind: str) -> dict:
    """The header of the file at ``path``, without unpickling anything."""
    with open(path, "rb") as handle:
        blob = handle.read(1 << 16)
    return _split(blob, magic, kind, path)[0]


def atomic_write(path, blob: bytes, prefix: str = ".checkpoint-") -> str:
    """Write ``blob`` to ``path`` atomically (temp file + ``os.replace``).

    ``path`` transitions atomically from its previous complete contents
    to the new ones; an interrupt mid-write leaves the previous file
    intact.  Shared by the simulation checkpointer and the live-node
    state store — one write discipline, one set of crash semantics.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


# ----------------------------------------------------------------------
# Simulation checkpoints
# ----------------------------------------------------------------------


def snapshot_network(network: "CupNetwork") -> bytes:
    """Serialize the complete deterministic state of ``network``.

    Safe at any instant outside an event handler — including between
    the chunks of an auto-checkpointed run.  Snapshotting never mutates
    the simulation: no events are consumed, no streams advance.
    """
    sim = network.sim
    header = {
        "sim_now": sim.now,
        "sim_end": network.config.sim_end,
        "events_processed": sim.events_processed,
        "pending_events": sim.pending,
        "num_nodes": len(network.nodes),
        "mode": network.config.mode,
        "seed": network.config.seed,
    }
    # A snapshot taken while the engine loop is (or appears) live must
    # not freeze ``_running=True`` into the restored object, where it
    # would make the first resumed run_until die as "not reentrant".
    was_running = sim._running
    sim._running = False
    try:
        return pack(MAGIC, header, network)
    finally:
        sim._running = was_running


def restore_network(
    blob: bytes, verify_fingerprint: bool = True, path=None
) -> "CupNetwork":
    """Reconstruct the network a :func:`snapshot_network` blob captured.

    The restored network is fully independent of the original (tearing
    the original down — or the process that held it dying — loses
    nothing) and continues deterministically: ``run()`` picks up at the
    snapshot's clock without re-beginning the workload.
    """
    _, network = unpack(blob, MAGIC, "checkpoint", verify_fingerprint, path)
    # Belt and braces: never trust a serialized loop flag.
    network.sim._running = False
    return network


def save_checkpoint(network: "CupNetwork", path) -> str:
    """Write a checkpoint of ``network`` to ``path`` atomically."""
    return atomic_write(path, snapshot_network(network))


def load_checkpoint(path, verify_fingerprint: bool = True) -> "CupNetwork":
    """Restore the network saved at ``path`` (see :func:`restore_network`)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return restore_network(
        blob, verify_fingerprint=verify_fingerprint, path=path
    )


def checkpoint_info(path) -> dict:
    """The header of the checkpoint at ``path``, without unpickling it.

    Cheap introspection for CLIs and operators: format, fingerprint,
    clock position, node count — enough to decide whether a resume is
    possible before committing to the full load.
    """
    return peek_header(path, MAGIC, "checkpoint")


# ----------------------------------------------------------------------
# Post-restore audit
# ----------------------------------------------------------------------


def verify_restored(
    network: "CupNetwork", convergence_slack: Optional[float] = None
) -> List[str]:
    """Audit a freshly restored network; return (and raise on) problems.

    Every node's cache must pass its structural
    ``audit_consistency()``; when an invariant checker rode along in the
    snapshot, its full :meth:`audit_network` sweep runs too, and — when
    ``convergence_slack`` is given — its convergence audit.  Raises
    :class:`CheckpointError` listing every problem found, so a corrupt
    or version-skewed restore dies before it can burn compute on a
    doomed run.
    """
    problems: List[str] = []
    for node_id in network.nodes:
        for problem in network.nodes[node_id].cache.audit_consistency():
            problems.append(f"node {node_id!r}: {problem}")
    checker = network.invariants
    if checker is not None:
        before = len(checker.violations)
        checker.audit_network()
        if convergence_slack is not None:
            checker.audit_convergence(slack=convergence_slack)
        problems.extend(
            str(violation) for violation in checker.violations[before:]
        )
    if problems:
        raise CheckpointError(
            "restored network failed its consistency audit:\n  "
            + "\n  ".join(problems)
        )
    return problems
