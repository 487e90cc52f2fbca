"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


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
        status = main(["chaos", "steady-state", "--seed", "7"])
        out = capsys.readouterr().out
        assert status == 0
        assert "steady-state+chaos" in out
        assert "transport faults:" in out
        assert "invariants: OK" in out

    def test_chaos_custom_fault_rates(self, capsys):
        status = main([
            "chaos", "steady-state", "--seed", "7",
            "--loss", "0.1", "--duplicate", "0.0", "--jitter", "0.0",
        ])
        assert status == 0
        assert "lost=" in capsys.readouterr().out

    def test_chaos_rejects_all_zero_faults(self, capsys):
        status = main([
            "chaos", "steady-state",
            "--loss", "0", "--duplicate", "0", "--jitter", "0",
        ])
        assert status == 2
        assert "at least one" in capsys.readouterr().err

    def test_chaos_unknown_scenario(self, capsys):
        assert main(["chaos", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


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
        args = build_parser().parse_args(["node", "serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 9400
        assert args.mode == "cup"
        assert args.policy == "second-chance"
        assert not args.no_invariants
        assert not args.no_recovery

    def test_join_requires_at_least_one_peer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node", "join"])
        args = build_parser().parse_args(
            ["node", "join", "10.0.0.1:9400", "10.0.0.2:9400"]
        )
        assert args.peers == ["10.0.0.1:9400", "10.0.0.2:9400"]
        assert args.port == 0  # joiners default to an OS-assigned port

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
