"""Supervised sweep executor: crashes, hangs, retries, resume.

Drives the production per-attempt processes through injected faults
(:class:`WorkerFault`): attempts that SIGKILL themselves mid-batch,
attempts that hang past the per-cell wall-clock budget, and faults that
outlast the retry budget.  The sweep must survive all of them — retry
the cell in a fresh process, keep the rest of the batch flowing — and a
rerun after a failure must serve the survivors from the cache.  No
child process may outlive ``execute``, however it ends.
"""

import multiprocessing

import pytest

from repro.core.protocol import CupConfig
from repro.experiments import executor, runcache
from repro.experiments.executor import (
    Cell,
    Supervision,
    SweepError,
    WorkerFault,
    execute,
)
from repro.experiments.runner import clear_cache


def tiny_config(**overrides) -> CupConfig:
    base = dict(
        num_nodes=16, total_keys=1, query_rate=1.0, seed=5,
        entry_lifetime=50.0, query_start=100.0, query_duration=300.0,
        drain=100.0, gc_interval=50.0, link_delay=0.01,
    )
    base.update(overrides)
    return CupConfig(**base)


def batch(n=4):
    return [Cell(f"c{i}", tiny_config(seed=5 + i)) for i in range(n)]


FAST = Supervision(cell_timeout=60.0, max_retries=2)


@pytest.fixture(autouse=True)
def _fresh_supervision(monkeypatch):
    monkeypatch.delenv(executor.WORKERS_ENV, raising=False)
    clear_cache()
    executor.configure(None)
    executor.configure_supervision(None)
    yield
    clear_cache()
    executor.configure(None)
    executor.configure_supervision(None)


class TestPolicyValidation:
    def test_worker_fault_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            WorkerFault("segfault")
        with pytest.raises(ValueError):
            WorkerFault("sigkill", times=0)

    def test_supervision_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Supervision(cell_timeout=0.0)
        with pytest.raises(ValueError):
            Supervision(max_retries=-1)
        with pytest.raises(ValueError):
            Supervision(cell_timeout=float("nan"))
        with pytest.raises(ValueError):
            Supervision(cell_timeout=float("inf"))

    def test_faults_must_name_batch_labels(self):
        with pytest.raises(ValueError, match="not in the batch"):
            execute(
                batch(2), workers=2, use_cache=False,
                worker_faults={"nope": WorkerFault("sigkill")},
            )

    def test_configure_supervision_sets_process_default(self):
        executor.configure_supervision(FAST)
        assert executor.default_supervision() is FAST
        executor.configure_supervision(None)
        assert executor.default_supervision() == Supervision()


class TestCrashRecovery:
    def test_sigkilled_worker_is_replaced_and_cell_retried(self):
        cells = batch()
        results = execute(
            cells, workers=2, use_cache=False, supervision=FAST,
            worker_faults={"c1": WorkerFault("sigkill", times=1)},
        )
        assert set(results) == {"c0", "c1", "c2", "c3"}
        report = {r.label: r for r in executor.last_report()}
        assert report["c1"].attempts == 2
        assert report["c1"].retries == 1
        assert report["c0"].attempts == 1
        # The crash-victim's result matches a clean serial run.
        serial = execute(cells, workers=1, use_cache=False)
        assert results == serial

    def test_hung_worker_times_out_and_cell_retries(self):
        cells = batch()
        sup = Supervision(cell_timeout=1.0, max_retries=2)
        results = execute(
            cells, workers=2, use_cache=False, supervision=sup,
            worker_faults={"c2": WorkerFault("hang", times=1)},
        )
        assert set(results) == {"c0", "c1", "c2", "c3"}
        report = {r.label: r for r in executor.last_report()}
        assert report["c2"].attempts == 2
        # The hung attempt burned at least the timeout's wall clock.
        assert report["c2"].wall_seconds > 1.0

    def test_batch_survives_multiple_concurrent_crashes(self):
        cells = batch(6)
        results = execute(
            cells, workers=3, use_cache=False, supervision=FAST,
            worker_faults={
                "c0": WorkerFault("sigkill", times=1),
                "c3": WorkerFault("sigkill", times=2),
            },
        )
        assert len(results) == 6
        report = {r.label: r for r in executor.last_report()}
        assert report["c0"].attempts == 2
        assert report["c3"].attempts == 3


class TestRetryExhaustion:
    def test_persistent_crash_fails_cell_but_not_batch(self, tmp_path):
        runcache.configure(cache_dir=tmp_path)
        cells = batch()
        with pytest.raises(SweepError) as excinfo:
            execute(
                cells, workers=2, supervision=FAST,
                worker_faults={"c3": WorkerFault("sigkill", times=10)},
            )
        err = excinfo.value
        assert set(err.failures) == {"c3"}
        assert "died" in err.failures["c3"]
        assert set(err.results) == {"c0", "c1", "c2"}
        report = {r.label: r for r in executor.last_report()}
        assert report["c3"].source == "failed"
        assert report["c3"].attempts == 1 + FAST.max_retries

        # The survivors flushed incrementally: a rerun (fault gone)
        # serves them from the cache and re-runs only the failure.
        clear_cache()  # drop the in-process memo; keep the disk cache
        before = runcache.active().stats.hits
        results = execute(cells, workers=2, supervision=FAST)
        assert set(results) == {"c0", "c1", "c2", "c3"}
        assert runcache.active().stats.hits == before + 3
        report = {r.label: r.source for r in executor.last_report()}
        assert report["c3"] == "run"
        assert sorted(report[c] for c in ("c0", "c1", "c2")) == ["disk"] * 3

    def test_exhaustion_reason_mentions_timeout_for_hangs(self):
        sup = Supervision(cell_timeout=0.5, max_retries=0)
        with pytest.raises(SweepError) as excinfo:
            execute(
                batch(2), workers=2, use_cache=False, supervision=sup,
                worker_faults={"c1": WorkerFault("hang", times=5)},
            )
        assert "timeout" in excinfo.value.failures["c1"]


class TestPoolHygiene:
    def test_no_child_outlives_execute(self, monkeypatch):
        execute(batch(), workers=2, use_cache=False, supervision=FAST)
        assert multiprocessing.active_children() == []

        with pytest.raises(SweepError):
            execute(
                batch(3), workers=2, use_cache=False, supervision=FAST,
                worker_faults={"c1": WorkerFault("sigkill", times=10)},
            )
        assert multiprocessing.active_children() == []

        # A KeyboardInterrupt from the cache flush while another attempt
        # hangs: the hung child must be killed and joined on the way out.
        def interrupt(key, summary):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor, "memo_put", interrupt)
        with pytest.raises(KeyboardInterrupt):
            execute(
                batch(2), workers=2, supervision=FAST,
                worker_faults={"c0": WorkerFault("hang", times=5)},
            )
        assert multiprocessing.active_children() == []

    def test_serial_path_ignores_faults_and_reports(self):
        results = execute(batch(2), workers=1, use_cache=False)
        assert len(results) == 2
        report = {r.label: r for r in executor.last_report()}
        assert all(r.source == "run" and r.attempts == 1
                   for r in report.values())

    def test_drain_report_accumulates_across_batches(self):
        executor.drain_report()
        execute(batch(2), workers=1, use_cache=False)
        execute(batch(3), workers=1, use_cache=False)
        drained = executor.drain_report()
        assert len(drained) == 5
        assert executor.drain_report() == []
