"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    EXPERIMENTS,
    _node_config_from_args,
    build_parser,
    main,
)


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "CUP:" in out and "standard:" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--scale", "huge"])


class TestRunExperiment:
    def test_run_fig5_tiny(self, capsys):
        status = main(["run", "fig5", "--scale", "tiny", "--seed", "7"])
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "PASS" in out
        assert status == 0

    def test_run_table3_tiny(self, capsys):
        status = main(["run", "table3", "--scale", "tiny", "--seed", "7"])
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert status == 0


class TestSupervisedRun:
    @pytest.fixture(autouse=True)
    def _restore_execution_state(self):
        from repro.experiments import executor

        yield
        executor.configure(None)
        executor.configure_supervision(None)

    def test_report_json_then_resume_from_disk(self, tmp_path, capsys):
        from repro.experiments.runner import clear_cache

        report = tmp_path / "cells.json"
        argv = [
            "run", "fig5", "--scale", "tiny", "--seed", "3",
            "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
            "--report-json", str(report),
        ]
        clear_cache()
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "per-cell report:" not in first  # nothing retried or failed
        rows = json.loads(report.read_text())
        assert rows and all(row["source"] == "run" for row in rows)
        assert all(row["attempts"] == 1 and row["error"] is None
                   for row in rows)
        assert "run cache: 0 hits," in first

        # A later invocation (the memo sits in front of the disk cache,
        # so forget it as a fresh process would) re-runs nothing.
        clear_cache()
        assert main(argv) == 0
        again = json.loads(report.read_text())
        assert [row["label"] for row in again] == [r["label"] for r in rows]
        assert all(row["source"] == "disk" for row in again)
        assert ", 0 misses, 0 stored" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--cell-timeout", "-1"),
        ("--cell-timeout", "0"),
        ("--cell-timeout", "nan"),
        ("--cell-timeout", "inf"),
        ("--max-retries", "-1"),
    ])
    def test_supervision_flags_are_usage_errors(self, flag, value, capsys):
        assert main(["run", "fig5", "--scale", "tiny", flag, value]) == 2
        field = flag[2:].replace("-", "_")
        assert f"repro run: error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_workers_env_is_a_usage_error(
        self, value, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_WORKERS", value)
        assert main(["run", "fig5", "--scale", "tiny", "--no-cache"]) == 2
        assert "REPRO_WORKERS must be >= 1" in capsys.readouterr().err

    def test_flags_reach_the_pool_and_failures_are_reported(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.core.protocol import CupConfig
        from repro.experiments import executor

        def doomed(scale, seed):
            # A harness whose middle cell kills its worker on every
            # attempt; supervision comes from the command line alone.
            cells = [
                executor.Cell(f"c{i}", CupConfig(
                    num_nodes=16, total_keys=1, seed=seed + i,
                    query_start=50.0, query_duration=100.0, drain=50.0,
                ))
                for i in range(3)
            ]
            return executor.execute(cells, worker_faults={
                "c1": executor.WorkerFault("sigkill", times=9),
            })

        monkeypatch.setitem(EXPERIMENTS, "fig5", ("doomed", doomed))
        report = tmp_path / "cells.json"
        status = main([
            "run", "fig5", "--scale", "tiny", "--no-cache",
            "--workers", "2", "--max-retries", "1",
            "--report-json", str(report),
        ])
        out = capsys.readouterr().out
        assert status == 1
        assert "fig5 FAILED" in out and "'c1': worker died" in out
        assert "per-cell report:" in out
        rows = {row["label"]: row for row in json.loads(report.read_text())}
        assert rows["c1"]["source"] == "failed"
        assert rows["c1"]["attempts"] == 2 and rows["c1"]["retries"] == 1
        assert rows["c0"]["source"] == rows["c2"]["source"] == "run"


class TestScenariosCommands:
    def test_scenarios_list(self, capsys):
        from repro.scenarios import SCENARIOS

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_scenarios_run_one(self, capsys):
        assert main(["scenarios", "run", "steady-state", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "steady-state" in out
        assert "invariants: OK" in out

    def test_scenarios_run_without_invariants(self, capsys):
        status = main(
            ["scenarios", "run", "flash-crowd", "--no-invariants"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "invariants: not checked" in out

    def test_scenarios_run_unknown(self, capsys):
        assert main(["scenarios", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_run_all(self, capsys):
        from repro.scenarios import SCENARIOS

        assert main(["scenarios", "run", "all"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert f"scenario {name!r}" in out

    def test_scenarios_run_convergence_audit(self, capsys):
        status = main([
            "scenarios", "run", "lossy-mesh", "--seed", "7",
            "--convergence",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "invariants: OK" in out
        assert "transport faults:" in out
        assert "recovery:" in out


class TestChaosCommand:
    def test_chaos_wraps_and_audits_a_scenario(self, capsys):
        status = main([
            "scenarios", "run", "steady-state", "--seed", "7",
            "--loss", "0.2", "--duplicate", "0.1", "--jitter", "0.1",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "steady-state+chaos" in out
        assert "transport faults:" in out
        assert "invariants: OK" in out

    def test_chaos_custom_fault_rates(self, capsys):
        status = main([
            "scenarios", "run", "steady-state", "--seed", "7",
            "--loss", "0.1",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "lost=" in out
        assert "duplicated=0" in out

    def test_chaos_needs_the_invariant_checker(self, capsys):
        status = main([
            "scenarios", "run", "steady-state",
            "--loss", "0.1", "--no-invariants",
        ])
        assert status == 2
        assert "--no-invariants" in capsys.readouterr().err


class TestProfileCommand:
    @pytest.fixture(autouse=True)
    def _restore_execution_state(self):
        from repro.experiments import executor, runcache

        saved = runcache.snapshot()
        yield
        runcache.restore(saved)
        executor.configure(None)

    def test_profile_unknown_harness(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "unknown harness" in capsys.readouterr().err

    def test_profile_macro_cell(self, capsys):
        status = main([
            "profile", "macro", "--scale", "tiny", "--nodes", "16",
            "--top", "5", "--sort", "tottime",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "profiling macro cell" in out
        assert "cumtime" in out  # pstats table rendered

    def test_profile_sort_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "macro", "--sort", "wat"])


class TestNodeCommands:
    def test_node_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node"])

    def test_serve_defaults(self):
        config = _node_config_from_args(
            build_parser().parse_args(["node", "serve"])
        )
        assert config.host == "127.0.0.1"
        assert config.port == 9400
        assert config.peers == ()
        assert config.mode == "cup"
        assert config.policy == "second-chance"
        assert config.invariants
        assert config.recovery

    def test_serve_port_follows_the_peers(self):
        def config(*argv):
            return _node_config_from_args(
                build_parser().parse_args(["node", "serve", *argv])
            )

        joiner = config("10.0.0.1:9400", "10.0.0.2:9400")
        assert joiner.peers == ("10.0.0.1:9400", "10.0.0.2:9400")
        assert joiner.port == 0  # joiners default to an OS-assigned port
        assert config("10.0.0.1:9400", "--port", "9555").port == 9555
        assert config("--port", "0").port == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node", "join", "10.0.0.1:9400"])

    def test_serve_mode_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node", "serve", "--mode", "gossip"])

    def test_serve_state_dir_defaults_off(self):
        args = build_parser().parse_args(["node", "serve"])
        assert args.state_dir is None
        assert args.snapshot_interval == 5.0
        args = build_parser().parse_args(
            ["node", "serve", "--state-dir", "/var/lib/cup",
             "--snapshot-interval", "0.5"]
        )
        assert args.state_dir == "/var/lib/cup"
        assert args.snapshot_interval == 0.5

    def test_put_get_parse(self):
        put = build_parser().parse_args(
            ["node", "put", "somekey", "replica-1",
             "--node", "10.0.0.1:9400", "--lifetime", "60",
             "--event", "refresh"]
        )
        assert put.key == "somekey"
        assert put.replica_id == "replica-1"
        assert put.lifetime == 60.0
        assert put.event == "refresh"
        get = build_parser().parse_args(
            ["node", "get", "somekey", "--wait", "2.5"]
        )
        assert get.key == "somekey"
        assert get.wait == 2.5
        assert get.node == "127.0.0.1:9400"

    def test_put_event_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["node", "put", "k", "r", "--event", "resurrect"]
            )

    @pytest.mark.parametrize("argv", [
        ["node", "info"],
        ["node", "stop"],
        ["node", "get", "somekey"],
        ["node", "put", "somekey", "replica-1"],
    ])
    def test_client_commands_fail_cleanly_without_a_daemon(
        self, argv, capsys
    ):
        # Port 9 (discard) refuses on localhost: every client
        # subcommand must exit 1 with a one-line diagnostic naming the
        # unreachable address, not a traceback.
        status = main(argv + ["--node", "127.0.0.1:9",
                              "--timeout", "0.5"])
        err = capsys.readouterr().err
        assert status == 1
        assert "error: no daemon at 127.0.0.1:9" in err
        assert len(err.strip().splitlines()) == 1

    def test_node_address_parsing(self):
        from repro.net.client import parse_address

        assert parse_address("10.0.0.1:1234") == ("10.0.0.1", 1234)
        assert parse_address("10.0.0.1") == ("10.0.0.1", 9400)
        assert parse_address(":7777") == ("127.0.0.1", 7777)
        with pytest.raises(ValueError):
            parse_address("host:notaport")
