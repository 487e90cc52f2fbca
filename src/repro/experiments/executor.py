"""Parallel execution of independent simulation cells.

The paper's figures and tables are sweeps of *independent* cells — one
simulation per (push level, capacity, network size, policy, …) point —
so the sweep is embarrassingly parallel.  Harnesses declare their cells
(:class:`Cell`: a label, a :class:`CupConfig`, and optionally a
declarative §3.7 fault schedule) and submit them in one batch to
:func:`execute`, which:

1. deduplicates cells that resolve to the same run key (shared
   standard-caching twins are computed once, not once per process);
2. serves whatever it can from the in-process memo and the persistent
   disk cache (:mod:`repro.experiments.runcache`);
3. runs each remaining cell attempt in its own forked process, at most
   ``workers`` at once (``workers=1`` or a single pending cell runs
   in-process);
4. flushes every fresh result into both cache layers **as it
   completes**, so an aborted sweep keeps its finished cells and a
   rerun re-runs only unfinished work;
5. returns ``{label: MetricsSummary}`` with deterministic content —
   results are keyed, so process scheduling order can never leak into
   tables.

Supervision (:class:`Supervision`) is what lets a sweep outlive a
hostile machine: an attempt whose result pipe closes without a result
died (SIGKILL, OOM), and one that outlives ``cell_timeout`` is killed;
either is retried at once, and only when retries exhaust is the cell
marked failed — the rest of the batch still completes, and the failures
surface together as a :class:`SweepError`.  No child outlives
:func:`execute`, whether it returns or raises.  A test-only fault
injector (:class:`WorkerFault`) drives crash/hang drills through the
exact production path, the way ``LinkFaults`` drives the protocol tests.

Worker-count resolution: explicit ``workers=`` argument >
:func:`configure` (the CLI's ``--workers``) > ``$REPRO_WORKERS`` > 1.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import signal
import time
from collections import deque
from multiprocessing.connection import wait
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.protocol import CupConfig, CupNetwork
from repro.experiments import runcache, topology
from repro.experiments.runner import _cache_key, memo_get, memo_put
from repro.metrics.collector import MetricsSummary
from repro.scenarios.dsl import Scenario
from repro.workload.faults import (
    CapacityFaultSchedule,
    once_down_always_down,
    up_and_down,
)

WORKERS_ENV = "REPRO_WORKERS"

FAULT_CONFIGURATIONS = ("up-and-down", "once-down-always-down")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """Declarative §3.7 capacity-fault schedule attached to a cell.

    Mirrors the arguments of the capacity harness: ``fraction`` of nodes
    drop to ``reduced`` outgoing capacity after ``warmup`` seconds of
    query traffic — repeatedly (*up-and-down*, alternating ``down_for``
    and ``stable_for``) or permanently (*once-down-always-down*).
    """

    configuration: str
    reduced: float
    fraction: float = 0.2
    warmup: float = 300.0
    down_for: float = 600.0
    stable_for: float = 300.0

    def __post_init__(self) -> None:
        if self.configuration not in FAULT_CONFIGURATIONS:
            raise ValueError(
                f"unknown configuration: {self.configuration!r}; choose "
                f"from {FAULT_CONFIGURATIONS}"
            )

    def key(self) -> tuple:
        return (
            self.configuration, self.reduced, self.fraction,
            self.warmup, self.down_for, self.stable_for,
        )


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independent simulation in a sweep.

    A cell is either a plain config run, a config plus a declarative
    §3.7 fault schedule, or a config plus a :class:`Scenario` — the
    scenario's phases and overrides are applied on top of ``config``
    (which then acts as the deployment base) by
    :meth:`Scenario.build_config`.
    """

    label: Hashable
    config: CupConfig
    faults: Optional[FaultSpec] = None
    scenario: Optional[Scenario] = None

    def __post_init__(self) -> None:
        if self.faults is not None and self.scenario is not None:
            raise ValueError(
                "a cell takes either a fault schedule or a scenario, "
                "not both (express the faults as a CapacityFault phase)"
            )


def cell_key(cell: Cell) -> tuple:
    """Flat cache key identifying the cell's result across processes."""
    key = _cache_key(cell.config)
    if cell.faults is not None:
        key = key + ("faults",) + cell.faults.key()
    if cell.scenario is not None:
        key = key + ("scenario",) + cell.scenario.key()
    return key


def run_cell(cell: Cell) -> MetricsSummary:
    """Execute one cell from scratch, bypassing every result cache.

    Topology is the exception: churn-free cells lease their built
    overlay from the process-local snapshot cache
    (:mod:`repro.experiments.topology`), so a sweep pays the build and
    the route-memo warm-up once per distinct topology per worker, not
    once per cell.  Cells whose scenario declares a churn or crash
    hazard mutate membership and always build privately.
    """
    if cell.scenario is not None:
        scenario = cell.scenario
        config = scenario.build_config(base=cell.config)
        if scenario.hazards() & {"churn", "crash"}:
            net = CupNetwork(config)
        else:
            net = CupNetwork(config, topology=topology.lease(config))
        scenario.compile_onto(net)
        return net.run()
    if cell.faults is None:
        config = cell.config
        return CupNetwork(config, topology=topology.lease(config)).run()
    spec = cell.faults
    config = cell.config
    net = CupNetwork(config, topology=topology.lease(config))
    schedule = CapacityFaultSchedule(
        net.sim,
        list(net.nodes),
        net.set_node_capacity,
        fraction=spec.fraction,
        reduced=spec.reduced,
        rng=net.streams.get("faults"),
    )
    if spec.configuration == "up-and-down":
        up_and_down(
            schedule,
            start=config.query_start,
            end=config.query_end,
            warmup=spec.warmup,
            down_for=spec.down_for,
            stable_for=spec.stable_for,
        )
    else:
        once_down_always_down(
            schedule, start=config.query_start, warmup=spec.warmup
        )
    return net.run()


# ----------------------------------------------------------------------
# Worker-count configuration
# ----------------------------------------------------------------------

_workers: Optional[int] = None


def configure(workers: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` re-reads env)."""
    global _workers
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _workers = workers


def default_workers() -> int:
    """Configured worker count > ``$REPRO_WORKERS`` > 1 (serial).

    Raises ``ValueError`` when ``$REPRO_WORKERS`` is not an integer >= 1.
    """
    if _workers is not None:
        return _workers
    text = os.environ.get(WORKERS_ENV, "1")
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {text!r}")
    return int(text)


# ----------------------------------------------------------------------
# Supervision policy and reporting
# ----------------------------------------------------------------------


WORKER_FAULT_KINDS = ("sigkill", "hang")


@dataclasses.dataclass(frozen=True)
class WorkerFault:
    """Test-only fault injected into an attempt *before* it runs a cell.

    ``sigkill`` makes the attempt kill itself with ``SIGKILL`` (the
    process vanishes without cleanup — indistinguishable from the OOM
    killer); ``hang`` makes it sleep forever (indistinguishable from a
    livelocked cell).  The fault fires on the cell's first ``times``
    attempts and then stands down, so retry paths can be exercised
    end-to-end.  Faults ride along with the forked attempt — they are
    not part of the :class:`Cell` and can never leak into cache keys.
    """

    kind: str
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"unknown worker fault kind: {self.kind!r}; choose "
                f"from {WORKER_FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclasses.dataclass(frozen=True)
class Supervision:
    """Retry/timeout policy for parallel cell attempts.

    ``cell_timeout`` is the per-attempt wall-clock budget in seconds, a
    finite number > 0 (``None`` disables hang detection); a cell whose
    attempt dies or times out is retried at once, up to ``max_retries``
    more times.
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and not (
            math.isfinite(self.cell_timeout) and self.cell_timeout > 0
        ):
            raise ValueError(
                "cell_timeout must be a finite number > 0, got "
                f"{self.cell_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


@dataclasses.dataclass
class CellReport:
    """Per-cell accounting from the last :func:`execute` batch.

    ``source`` is where the result came from: ``"memo"`` / ``"disk"``
    (cache hit — zero attempts), ``"run"`` (computed this batch), or
    ``"failed"`` (retries exhausted; ``error`` says why).
    ``wall_seconds`` accumulates across attempts, dead ones included.
    """

    label: Hashable
    source: str
    attempts: int = 0
    wall_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


class SweepError(RuntimeError):
    """Some cells failed after exhausting their retries.

    Raised at the *end* of the batch: every other cell has already
    settled and flushed to the caches, so a follow-up run re-runs only
    the failures.  ``failures`` maps label to the failure reason;
    ``results`` holds the summaries of every cell that did succeed.
    """

    def __init__(self, failures, results):
        self.failures = dict(failures)
        self.results = dict(results)
        labels = ", ".join(repr(label) for label in self.failures)
        super().__init__(
            f"{len(self.failures)} cell(s) failed after retries: {labels}"
        )


_supervision: Optional[Supervision] = None


def configure_supervision(supervision: Optional[Supervision]) -> None:
    """Set the process-wide default supervision policy (``None`` resets)."""
    global _supervision
    _supervision = supervision


def default_supervision() -> Supervision:
    return _supervision if _supervision is not None else Supervision()


_last_report: List[CellReport] = []
_session_report: List[CellReport] = []


def last_report() -> List[CellReport]:
    """Per-cell reports from the most recent :func:`execute` batch."""
    return list(_last_report)


def drain_report() -> List[CellReport]:
    """All per-cell reports accumulated since the last drain.

    A sweep harness may issue several :func:`execute` batches; the CLI
    drains once before the sweep (to discard history) and once after
    (to print/export the whole sweep's accounting).
    """
    global _session_report
    report = _session_report
    _session_report = []
    return report


# ----------------------------------------------------------------------
# One forked process per cell attempt
# ----------------------------------------------------------------------

# Pinned, not left to the platform default: an attempt is cheap only as a
# fork that inherits the parent's imports, and Python 3.14 makes
# forkserver the Linux default.
_FORK = multiprocessing.get_context("fork")


def _attempt(cell: Cell, fault: Optional[WorkerFault], conn) -> None:
    """Child process body: run one attempt, send ``(ok, payload)``, exit.

    Exceptions from the cell itself are posted back as failures (they
    are deterministic; retrying them would find the same bug), so only
    process death and hangs are retried by the supervisor.
    """
    if fault is not None:
        if fault.kind == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        while True:  # hang
            time.sleep(3600.0)
    try:
        outcome = (True, run_cell(cell))
    except Exception as exc:
        outcome = (False, f"{type(exc).__name__}: {exc}")
    conn.send(outcome)


def _run_forked(items, processes, supervision, faults, settle):
    """Run ``items`` (``[(key, cell)]``), one forked process per attempt.

    At most ``processes`` attempts are alive at once.  Each attempt owns
    a one-way result pipe, and the supervisor sleeps in ``wait()`` on
    those pipes until one is readable or the earliest deadline passes:
    a pipe at EOF without a result is a dead attempt, an attempt past
    ``cell_timeout`` is killed, and either is re-queued at once until
    its retries run out.  ``faults`` maps key to a :class:`WorkerFault`;
    ``settle(key, summary)`` is called as each cell completes.  Returns
    ``(failures, stats)``: key -> reason for cells that failed, and key
    -> (attempts, wall_seconds) for every cell.
    """
    queue = deque(items)
    attempts = {key: 0 for key, _ in items}
    wall = {key: 0.0 for key, _ in items}
    failures: Dict[tuple, str] = {}
    running: Dict[object, tuple] = {}  # pipe -> (process, key, cell, t0)
    timeout = supervision.cell_timeout
    try:
        while queue or running:
            while queue and len(running) < processes:
                key, cell = queue.popleft()
                fault = faults.get(key)
                if fault is not None and attempts[key] >= fault.times:
                    fault = None  # fault already fired its quota
                attempts[key] += 1
                recv_end, send_end = _FORK.Pipe(duplex=False)
                process = _FORK.Process(
                    target=_attempt, args=(cell, fault, send_end),
                    daemon=True,
                )
                process.start()
                send_end.close()  # EOF on recv_end now means the child died
                running[recv_end] = (process, key, cell, time.monotonic())
            budget = None
            if timeout is not None:
                first = min(started for *_, started in running.values())
                budget = max(0.0, first + timeout - time.monotonic())
            ready = wait(list(running), timeout=budget)
            now = time.monotonic()
            for conn, (process, key, cell, started) in list(running.items()):
                hung = conn not in ready
                if hung and (timeout is None or now - started < timeout):
                    continue
                del running[conn]
                outcome = None
                if hung:
                    process.kill()
                else:
                    try:
                        outcome = conn.recv()
                    except EOFError:  # the child died without a result
                        pass
                conn.close()
                process.join()
                wall[key] += now - started
                if outcome is not None:
                    ok, payload = outcome
                    if ok:
                        settle(key, payload)
                    else:
                        failures[key] = payload
                    continue
                reason = (
                    f"cell exceeded {timeout:g}s wall-clock timeout" if hung
                    else f"worker died mid-cell (exitcode {process.exitcode})"
                )
                if attempts[key] > supervision.max_retries:
                    failures[key] = (
                        f"{reason}; retries exhausted after "
                        f"{attempts[key]} attempt(s)"
                    )
                else:
                    queue.append((key, cell))
    finally:
        # Ctrl-C or any other exception: leave no child behind.
        for conn, (process, *_) in running.items():
            process.kill()
            process.join()
            conn.close()
    stats = {key: (attempts[key], wall[key]) for key, _ in items}
    return failures, stats


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------

CellsInput = Union[Iterable[Cell], Mapping[Hashable, CupConfig]]


def _normalize(cells: CellsInput) -> List[Cell]:
    if isinstance(cells, Mapping):
        normalized = [
            Cell(label, config) for label, config in cells.items()
        ]
    else:
        normalized = list(cells)
    labels = [cell.label for cell in normalized]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate cell labels in batch")
    return normalized


def execute(
    cells: CellsInput,
    workers: Optional[int] = None,
    use_cache: bool = True,
    supervision: Optional[Supervision] = None,
    worker_faults: Optional[Mapping[Hashable, WorkerFault]] = None,
) -> Dict[Hashable, MetricsSummary]:
    """Run a batch of cells, returning ``{label: summary}``.

    ``cells`` is a sequence of :class:`Cell` or a ``{label: CupConfig}``
    mapping.  Labels must be unique; cells whose *run key* coincides are
    computed once and share the result object.  The returned dict
    preserves the submission order of its labels.

    ``supervision`` overrides the process default
    (:func:`configure_supervision`); ``worker_faults`` maps labels to
    test-only :class:`WorkerFault` injections.  Each completed cell is
    flushed to the caches immediately; if any cell exhausts its retries
    a :class:`SweepError` carrying the survivors is raised once the
    whole batch has settled.  Per-cell accounting for the batch is
    available afterwards from :func:`last_report`.
    """
    global _last_report
    batch = _normalize(cells)
    keys = {cell.label: cell_key(cell) for cell in batch}
    disk = runcache.active() if use_cache else None
    policy = supervision if supervision is not None else default_supervision()
    faults_by_label = dict(worker_faults or {})
    unknown = set(faults_by_label) - {cell.label for cell in batch}
    if unknown:
        raise ValueError(
            "worker_faults name labels not in the batch: "
            f"{sorted(unknown, key=repr)}"
        )

    resolved: Dict[tuple, MetricsSummary] = {}
    pending: Dict[tuple, Cell] = {}
    sources: Dict[tuple, str] = {}
    for cell in batch:
        key = keys[cell.label]
        if key in resolved or key in pending:
            continue
        if use_cache:
            memo = memo_get(key)
            if memo is not None:
                resolved[key] = memo
                sources[key] = "memo"
                continue
            if disk is not None:
                stored = disk.get(key)
                if stored is not None:
                    resolved[key] = stored
                    memo_put(key, stored)
                    sources[key] = "disk"
                    continue
        pending[key] = cell
        sources[key] = "run"

    failures_by_key: Dict[tuple, str] = {}
    stats: Dict[tuple, Tuple[int, float]] = {}
    if pending:
        count = default_workers() if workers is None else max(1, workers)
        items = list(pending.items())

        def settle(key: tuple, summary: MetricsSummary) -> None:
            # Persist each cell as it completes, not when the batch
            # ends: an interrupted sweep keeps every finished cell.
            resolved[key] = summary
            if use_cache:
                memo_put(key, summary)
                if disk is not None:
                    disk.put(key, summary)

        if count > 1 and len(items) > 1:
            faults_by_key = {
                keys[label]: fault
                for label, fault in faults_by_label.items()
                if keys[label] in pending
            }
            failures_by_key, stats = _run_forked(
                items, count, policy, faults_by_key, settle
            )
        else:
            for key, cell in items:
                started = time.monotonic()
                settle(key, run_cell(cell))
                stats[key] = (1, time.monotonic() - started)

    report: List[CellReport] = []
    results: Dict[Hashable, MetricsSummary] = {}
    failures: Dict[Hashable, str] = {}
    for cell in batch:
        key = keys[cell.label]
        n, seconds = stats.get(key, (0, 0.0))
        if key in failures_by_key:
            reason = failures_by_key[key]
            failures[cell.label] = reason
            report.append(
                CellReport(cell.label, "failed", n, seconds, reason)
            )
        else:
            results[cell.label] = resolved[key]
            report.append(
                CellReport(cell.label, sources.get(key, "run"), n, seconds)
            )
    _last_report = report
    _session_report.extend(report)
    if failures:
        raise SweepError(failures, results)
    return results
