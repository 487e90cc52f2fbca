"""Persistent on-disk cache for simulation results.

Runs are deterministic functions of their :class:`CupConfig` (plus an
optional fault schedule), so a finished cell never needs to be re-run —
not even by a different process on a different day.  This module stores
one :class:`MetricsSummary` per run key as a small JSON file under a
cache root (default ``.repro-cache/``), namespaced by a *code
fingerprint* so that any change to the simulation source invalidates
every cached result at once.

Layering: the in-process memo in :mod:`repro.experiments.runner` sits in
front of this cache; the parallel executor consults both.  A process-
wide active cache is configured once (CLI flags, benchmark fixtures, or
environment variables) and picked up lazily by the runner.

Environment:

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro-cache``);
* ``REPRO_NO_CACHE`` — any of ``1/true/yes`` disables the disk cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.metrics.collector import MetricsSummary

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subpackages whose source determines a run's outcome.  Orchestration
#: code (experiments harnesses, CLI, reports) is deliberately excluded:
#: editing a table layout must not throw away hours of cached sweeps.
FINGERPRINTED_PACKAGES = (
    "core", "sim", "workload", "overlay", "replicas", "metrics",
    # Scenario compilation (phase scheduling, stream wiring, partition
    # island dealing) shapes scenario-cell results just like the
    # protocol does — a dsl.py edit must invalidate cached scenarios.
    "scenarios",
)

#: Files outside those packages that still shape results —
#: ``executor.py`` builds the network/fault schedule for every cell and
#: ``topology.py`` decides how cells share built overlays.
FINGERPRINTED_FILES = (
    "experiments/executor.py",
    "experiments/topology.py",
)

_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hex digest over every result-affecting source file (memoized)."""
    global _fingerprint
    if _fingerprint is None:
        digest = hashlib.sha256()
        package_root = Path(__file__).resolve().parent.parent
        paths = [
            path
            for package in FINGERPRINTED_PACKAGES
            for path in (package_root / package).rglob("*.py")
        ]
        paths += [package_root / name for name in FINGERPRINTED_FILES]
        for path in sorted(paths):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


@dataclasses.dataclass
class CacheStats:
    """Counters reported back to the user after a sweep."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def __str__(self) -> str:
        out = f"{self.hits} hits, {self.misses} misses, {self.stores} stored"
        if self.errors:
            out += f", {self.errors} write errors"
        return out


class RunCache:
    """Maps run keys to ``MetricsSummary`` JSON files under ``root``.

    Keys are the flat tuples produced by the runner/executor key
    functions; files live under ``root/<fingerprint>/<keyhash>.json``
    and embed the full key ``repr`` so hash collisions and schema drift
    both degrade to cache misses, never to wrong results.
    """

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()

    def _path(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return self.root / self.fingerprint / f"{digest}.json"

    def get(self, key: tuple) -> Optional[MetricsSummary]:
        """The cached summary for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("key") != repr(key):
                raise ValueError("cache key mismatch")
            summary = MetricsSummary.from_dict(payload["summary"])
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return summary

    def put(self, key: tuple, summary: MetricsSummary) -> None:
        """Persist ``summary`` under ``key`` (atomic replace).

        Best-effort: an unwritable cache directory must never kill a
        sweep that already paid for its simulations, so write failures
        only bump ``stats.errors`` (surfaced in the final report line).
        """
        payload = {
            "key": repr(key),
            "fingerprint": self.fingerprint,
            "summary": summary.to_dict(),
        }
        tmp = None
        try:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self.stats.errors += 1
            return
        self.stats.stores += 1

    def __len__(self) -> int:
        try:
            return sum(
                1 for _ in (self.root / self.fingerprint).glob("*.json")
            )
        except OSError:
            return 0


# ----------------------------------------------------------------------
# Process-wide active cache
# ----------------------------------------------------------------------

_state: Dict[str, object] = {"configured": False, "cache": None}


def configure(
    cache_dir: Optional[Union[str, Path]] = None,
    enabled: bool = True,
    fingerprint: Optional[str] = None,
) -> Optional[RunCache]:
    """Select the process-wide disk cache (CLI and fixtures call this).

    ``enabled=False`` turns persistent caching off entirely; otherwise
    the cache root is ``cache_dir`` > ``$REPRO_CACHE_DIR`` >
    ``.repro-cache``.  Returns the active :class:`RunCache` (or None).
    """
    if not enabled:
        _state.update(configured=True, cache=None)
        return None
    root = cache_dir or os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
    cache = RunCache(root, fingerprint)
    _state.update(configured=True, cache=cache)
    return cache


def active() -> Optional[RunCache]:
    """The process-wide cache, lazily configured from the environment."""
    if not _state["configured"]:
        disabled = os.environ.get(NO_CACHE_ENV, "").lower() in (
            "1", "true", "yes",
        )
        configure(enabled=not disabled)
    return _state["cache"]  # type: ignore[return-value]


def snapshot() -> Tuple[bool, Optional[RunCache]]:
    """Current configuration, for save/restore in tests."""
    return (bool(_state["configured"]), _state["cache"])  # type: ignore


def restore(saved: Tuple[bool, Optional[RunCache]]) -> None:
    """Undo a :func:`configure` (tests pair this with :func:`snapshot`)."""
    _state.update(configured=saved[0], cache=saved[1])


def reset() -> None:
    """Forget the configuration; the next :func:`active` re-reads env."""
    _state.update(configured=False, cache=None)
