"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro list
    python -m repro run fig3 [--scale small|paper|tiny] [--seed N]
    python -m repro run all --scale small --workers 4
    python -m repro run macro --nodes 4096 --checkpoint run.ckpt
    python -m repro run macro --resume --checkpoint run.ckpt
    python -m repro run all --cell-timeout 600 --report-json cells.json
    python -m repro quickstart
    python -m repro scenarios list
    python -m repro scenarios run perfect-storm [--seed N] [--no-invariants]
    python -m repro scenarios run flash-crowd --loss 0.2 --duplicate 0.1
    python -m repro node serve --port 9400
    python -m repro node serve 127.0.0.1:9400
    python -m repro node put somekey replica-1 --node 127.0.0.1:9400
    python -m repro node get somekey --node 127.0.0.1:9401

Each experiment prints its table (mirroring the paper's layout) followed
by a PASS/FAIL checklist of the paper's qualitative shape claims.

Sweep cells are independent simulations: ``--workers N`` fans them out
across N processes, and each finished cell flushes at once to an
on-disk run cache (``--cache-dir``, default ``.repro-cache/``) so
repeated invocations — and killed sweeps — only pay for cells they have
not seen.  ``--no-cache`` forces fresh runs.  Each parallel cell
attempt is its own forked process: ``--cell-timeout`` kills an attempt
that outlives its budget, ``--max-retries`` bounds how often a killed
or dead attempt is re-run, and ``--report-json`` writes the per-cell
source / attempts / wall-time table.  ``repro run macro --checkpoint``
snapshots the single long macro simulation periodically; ``--resume``
picks it up from the latest snapshot and finishes with byte-identical
results.

``scenarios run`` with any of ``--loss`` / ``--duplicate`` / ``--jitter``
above zero reruns the scenario over a seeded unreliable transport with
recovery on and the convergence audit.  ``node serve`` founds a cluster;
given seed members as positional arguments it joins theirs instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict

# A namespace that imports a harness module when one is named: ``repro
# node ...`` starts a daemon without the simulator, the harnesses or numpy.
from repro import experiments

EXPERIMENTS: Dict[str, tuple[str, Callable]] = {
    "fig3": (
        "Total and miss cost vs push level, low query rates (§3.3)",
        lambda scale, seed: experiments.push_level.run_push_level(
            scale, paper_rates=(1.0, 10.0), seed=seed
        ),
    ),
    "fig4": (
        "Total and miss cost vs push level, high query rates (§3.3)",
        lambda scale, seed: experiments.push_level.run_push_level(
            scale, paper_rates=(100.0, 1000.0), seed=seed,
            log_scale_figure=True,
        ),
    ),
    "table1": (
        "Total cost for varying cut-off policies (§3.4)",
        lambda scale, seed: experiments.cutoff_policies.run_cutoff_policies(
            scale, seed=seed),
    ),
    "table2": (
        "CUP vs standard caching across network sizes (§3.5)",
        lambda scale, seed: experiments.network_size.run_network_size(
            scale, seed=seed),
    ),
    "table3": (
        "Multiple replicas per key, naive vs fixed cut-off (§3.6)",
        lambda scale, seed: experiments.replicas_sweep.run_replicas_sweep(
            scale, seed=seed),
    ),
    "fig5": (
        "Total cost vs reduced capacity, λ=1 (§3.7)",
        lambda scale, seed: experiments.capacity.run_capacity(
            scale, paper_rate=1.0, seed=seed),
    ),
    "fig6": (
        "Total cost vs reduced capacity, high rate (§3.7)",
        lambda scale, seed: experiments.capacity.run_capacity(
            scale, paper_rate=min(1000.0, scale.max_rate), seed=seed,
            log_scale_figure=True,
        ),
    ),
    "justification": (
        "Justified-update economics vs query rate (§3.1)",
        lambda scale, seed: experiments.justification.run_justification(
            scale, seed=seed),
    ),
}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Available experiments (paper artifact -> harness):\n")
    for name, (description, _) in EXPERIMENTS.items():
        print(f"  {name:8s} {description}")
    print("\nRun one with: python -m repro run <name> [--scale small|paper]")
    return 0


def _run_macro(args: argparse.Namespace) -> int:
    """One long macro cell with durable checkpoints (``run macro``).

    The checkpoint drill: ``--checkpoint PATH`` snapshots periodically
    while running; after a crash (or ``kill -9``), ``--resume
    --checkpoint PATH`` audits and finishes the latest snapshot, and the
    final summary is byte-identical to an uninterrupted run
    (``--summary-json`` emits the canonical form for comparison).
    """
    from repro.core.protocol import CupNetwork
    from repro.persistence import (
        checkpoint_info,
        load_checkpoint,
        verify_restored,
    )

    scale = experiments.resolve_scale(args.scale)
    path = args.checkpoint
    if args.resume:
        if path is None or not os.path.exists(path):
            print(
                f"--resume needs an existing checkpoint (--checkpoint "
                f"{path or 'PATH'} not found)",
                file=sys.stderr,
            )
            return 2
        info = checkpoint_info(path)
        print(
            f"resuming from {path}: t={info['sim_now']:.1f}s of "
            f"{info['sim_end']:.1f}s, {info['pending_events']} pending "
            f"events, n={info['num_nodes']}, seed={info['seed']}"
        )
        net = load_checkpoint(path)
        verify_restored(net)
        print("post-restore audit: clean")
    else:
        config = scale.config(
            seed=args.seed, num_nodes=args.nodes,
            query_rate=scale.rate(100.0),
        )
        net = CupNetwork(config)
        print(
            f"macro cell: n={args.nodes} paper-rate=100 "
            f"scale={scale.name} seed={args.seed}"
        )
    if path is not None:
        net.enable_checkpoints(
            path,
            every_events=args.checkpoint_every_events,
            every_seconds=args.checkpoint_every_seconds,
        )
    started = time.monotonic()
    summary = net.run()
    elapsed = time.monotonic() - started
    print(
        f"miss cost {summary.miss_cost}  overhead "
        f"{summary.overhead_cost}  total {summary.total_cost}  "
        f"miss latency {summary.miss_latency:.3f} hops"
    )
    print(
        f"(macro completed in {elapsed:.1f}s, "
        f"{net.sim.events_processed} events)"
    )
    if args.summary_json is not None:
        with open(args.summary_json, "w") as handle:
            json.dump(summary.to_dict(), handle, sort_keys=True)
            handle.write("\n")
        print(f"summary written to {args.summary_json}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment == "macro":
        return _run_macro(args)
    if args.checkpoint is not None or args.resume:
        print(
            "--checkpoint/--resume apply to the single-cell 'macro' run "
            "(a killed sweep resumes from the run cache on its own)",
            file=sys.stderr,
        )
        return 2
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    from repro.experiments import executor, runcache

    scale = experiments.resolve_scale(args.scale)
    if args.workers is not None:
        executor.configure(workers=args.workers)
    try:
        executor.default_workers()  # validates $REPRO_WORKERS
        executor.configure_supervision(executor.Supervision(
            cell_timeout=args.cell_timeout, max_retries=args.max_retries,
        ))
    except ValueError as err:
        print(f"repro run: error: {err}", file=sys.stderr)
        return 2
    if args.no_cache:
        cache = runcache.configure(enabled=False)
    elif args.cache_dir is not None:
        cache = runcache.configure(cache_dir=args.cache_dir)
    else:
        runcache.reset()
        cache = runcache.active()  # honors $REPRO_NO_CACHE / $REPRO_CACHE_DIR
    executor.drain_report()  # discard accounting from before this run
    status = 0
    for name in names:
        _, runner = EXPERIMENTS[name]
        started = time.monotonic()
        try:
            result = runner(scale, args.seed)
        except executor.SweepError as err:
            elapsed = time.monotonic() - started
            print(f"{name} FAILED after {elapsed:.1f}s: {err}")
            for label, reason in err.failures.items():
                print(f"  {label!r}: {reason}")
            status = 1
            continue
        elapsed = time.monotonic() - started
        print(result.report())
        print(f"({name} completed in {elapsed:.1f}s at scale={scale.name})\n")
        if not result.all_expectations_hold():
            status = 1
    report = executor.drain_report()
    if any(cell.retries or cell.error for cell in report):
        _print_cell_report(report)
    if args.report_json is not None:
        payload = [
            {
                "label": str(cell.label),
                "source": cell.source,
                "attempts": cell.attempts,
                "retries": cell.retries,
                "wall_seconds": round(cell.wall_seconds, 6),
                "error": cell.error,
            }
            for cell in report
        ]
        with open(args.report_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"per-cell report written to {args.report_json}")
    if cache is not None:
        print(
            f"run cache: {cache.stats} under "
            f"{cache.root}/{cache.fingerprint} "
            f"(workers={executor.default_workers()})"
        )
    return status


def _print_cell_report(report) -> None:
    print("per-cell report:")
    print(f"  {'label':36s} {'source':7s} {'tries':>5s} "
          f"{'retries':>7s} {'wall':>8s}")
    for cell in report:
        line = (
            f"  {str(cell.label):36s} {cell.source:7s} "
            f"{cell.attempts:5d} {cell.retries:7d} "
            f"{cell.wall_seconds:7.2f}s"
        )
        if cell.error:
            line += f"  [{cell.error}]"
        print(line)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one experiment harness (or the macro cell) under cProfile."""
    import cProfile
    import pstats

    name = args.harness
    if name != "macro" and name not in EXPERIMENTS:
        print(f"unknown harness: {name!r}", file=sys.stderr)
        print(
            f"choose from: macro, {', '.join(EXPERIMENTS)}", file=sys.stderr
        )
        return 2
    # Profile actual simulation work: caches would reduce the profile to
    # JSON parsing, worker processes would move the work out of this
    # process.
    from repro.experiments import executor, runcache

    runcache.configure(enabled=False)
    executor.configure(workers=1)
    scale = experiments.resolve_scale(args.scale)
    profiler = cProfile.Profile()
    if name == "macro":
        from repro.core.protocol import CupNetwork

        config = scale.config(
            seed=args.seed, num_nodes=args.nodes,
            query_rate=scale.rate(100.0),
        )
        net = CupNetwork(config)
        print(
            f"profiling macro cell: n={args.nodes} paper-rate=100 "
            f"scale={scale.name}"
        )
        profiler.enable()
        net.run()
        profiler.disable()
    else:
        _, runner = EXPERIMENTS[name]
        print(f"profiling harness {name!r} at scale={scale.name}")
        profiler.enable()
        runner(scale, args.seed)
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    return 0


def _cmd_quickstart(_args: argparse.Namespace) -> int:
    from repro import CupConfig, CupNetwork

    config = CupConfig(
        num_nodes=64, total_keys=1, query_rate=2.0, seed=7,
        entry_lifetime=100.0, query_start=200.0, query_duration=1000.0,
        drain=200.0,
    )
    cup = CupNetwork(config).run()
    std = CupNetwork(config.variant(mode="standard")).run()
    print("64-node CAN, one key, λ=2 q/s, 10 refresh cycles:")
    print(f"  CUP:      miss cost {cup.miss_cost:6d}  overhead "
          f"{cup.overhead_cost:6d}  total {cup.total_cost:6d}  "
          f"miss latency {cup.miss_latency:.2f} hops")
    print(f"  standard: miss cost {std.miss_cost:6d}  overhead "
          f"{std.overhead_cost:6d}  total {std.total_cost:6d}  "
          f"miss latency {std.miss_latency:.2f} hops")
    print(f"  CUP saves {std.miss_cost - cup.miss_cost} miss hops at "
          f"{cup.overhead_cost} overhead hops "
          f"({cup.saved_miss_ratio(std):.2f} saved per overhead hop)")
    return 0


def _cmd_scenarios_list(_args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS

    print("Built-in scenarios (adversarial compositions, invariant-checked):\n")
    for name, scenario in SCENARIOS.items():
        hazards = ",".join(sorted(scenario.hazards())) or "none"
        print(f"  {name:16s} {scenario.description}")
        print(f"  {'':16s} phases: "
              f"{', '.join(type(p).__name__ for p in scenario.phases)}"
              f"  hazards: {hazards}")
    print("\nRun one with: python -m repro scenarios run <name|all>")
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS, run_scenario, with_chaos

    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(SCENARIOS)} or 'all'", file=sys.stderr)
        return 2
    chaos = args.loss > 0.0 or args.duplicate > 0.0 or args.jitter > 0.0
    convergence = args.convergence or chaos
    if convergence and args.no_invariants:
        print(
            "the convergence audit (--convergence, or any of --loss/"
            "--duplicate/--jitter above zero) runs on the invariant "
            "checker; drop --no-invariants",
            file=sys.stderr,
        )
        return 2
    status = 0
    for name in names:
        scenario = SCENARIOS[name]
        if chaos:
            scenario = with_chaos(
                scenario,
                loss=args.loss, duplicate=args.duplicate, jitter=args.jitter,
            )
        started = time.monotonic()
        result = run_scenario(
            scenario,
            seed=args.seed,
            invariants=not args.no_invariants,
            raise_on_violation=False,
            convergence=convergence,
        )
        elapsed = time.monotonic() - started
        print(result.report())
        print(f"({scenario.name} completed in {elapsed:.1f}s)\n")
        if not args.no_invariants and not result.ok:
            status = 1
    return status


def _node_config_from_args(args):
    from repro.net.daemon import LiveNodeConfig

    port = args.port
    if port is None:
        # A founder listens where clients look by default; a joiner is
        # found through the member list, so any free port will do.
        port = 0 if args.peers else 9400
    return LiveNodeConfig(
        host=args.host,
        port=port,
        node_id=args.node_id,
        peers=tuple(args.peers),
        mode=args.mode,
        policy=args.policy,
        pfu_timeout=args.pfu_timeout,
        keepalive_period=args.keepalive_period,
        keepalive_misses=args.keepalive_misses,
        invariants=not args.no_invariants,
        recovery=not args.no_recovery,
        quiet=args.quiet,
        state_dir=args.state_dir,
        snapshot_interval=args.snapshot_interval,
    )


def _cmd_node_serve(args) -> int:
    from repro.net.daemon import serve

    return serve(_node_config_from_args(args))


def _node_request(args, call) -> int:
    """Run one client call against ``args.node``; print the reply."""
    from repro.net.client import NodeClient
    from repro.net.wire import WireError

    try:
        with NodeClient(args.node, timeout=args.timeout) as client:
            reply = call(client)
    except ConnectionRefusedError:
        from repro.net.client import parse_address

        host, port = parse_address(args.node)
        print(f"error: no daemon at {host}:{port}", file=sys.stderr)
        return 1
    except (OSError, WireError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(reply, indent=2, sort_keys=True))
    if reply.get("t") == "error" or reply.get("ok") is False:
        return 1
    return 0


def _cmd_node_put(args) -> int:
    return _node_request(args, lambda client: client.put(
        args.key, args.replica_id, address=args.address,
        lifetime=args.lifetime, event=args.event,
    ))


def _cmd_node_get(args) -> int:
    return _node_request(
        args, lambda client: client.get(args.key, timeout=args.wait)
    )


def _cmd_node_info(args) -> int:
    return _node_request(args, lambda client: client.info())


def _cmd_node_audit(args) -> int:
    return _node_request(args, lambda client: client.audit())


def _cmd_node_stop(args) -> int:
    return _node_request(args, lambda client: client.stop())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CUP (Roussopoulos & Baker) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.set_defaults(fn=_cmd_list)

    run_parser = sub.add_parser("run", help="run an experiment")
    run_parser.add_argument(
        "experiment",
        help=f"one of: {', '.join(EXPERIMENTS)}, 'all', or 'macro' "
             "(one long checkpointable cell)",
    )
    run_parser.add_argument(
        "--scale", default=None, choices=["tiny", "small", "paper"],
        help="parameter preset (default: $REPRO_SCALE or 'small')",
    )
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="worker processes for independent sweep cells "
             "(default: $REPRO_WORKERS or 1 = serial)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent run cache (always re-simulate)",
    )
    run_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="run-cache directory (default: $REPRO_CACHE_DIR or "
             ".repro-cache)",
    )
    run_parser.add_argument(
        "--nodes", type=_positive_int, default=4096, metavar="N",
        help="network size for the 'macro' cell (default 4096)",
    )
    run_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="('macro' only) periodically snapshot the run to PATH; "
             "a killed run resumes from the latest snapshot",
    )
    run_parser.add_argument(
        "--resume", action="store_true",
        help="('macro' only) resume from --checkpoint PATH instead of "
             "starting fresh",
    )
    run_parser.add_argument(
        "--checkpoint-every-events", type=_positive_int, default=None,
        metavar="N", help="snapshot cadence in simulation events",
    )
    run_parser.add_argument(
        "--checkpoint-every-seconds", type=float, default=None,
        metavar="S", help="snapshot cadence in simulated seconds",
    )
    run_parser.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="('macro' only) write the final summary as canonical "
             "sorted-keys JSON (for byte comparison across resumes)",
    )
    run_parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget for one cell "
             "(default: unlimited)",
    )
    run_parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per cell after its process dies or times out "
             "(default 2)",
    )
    run_parser.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the per-cell source/attempts/wall-time report as "
             "JSON (CI artifact)",
    )
    run_parser.set_defaults(fn=_cmd_run)

    quick_parser = sub.add_parser(
        "quickstart", help="tiny CUP vs standard caching comparison"
    )
    quick_parser.set_defaults(fn=_cmd_quickstart)

    profile_parser = sub.add_parser(
        "profile",
        help="run one harness (or the macro cell) under cProfile",
    )
    profile_parser.add_argument(
        "harness",
        help=f"'macro' (one network-size cell) or one of: "
             f"{', '.join(EXPERIMENTS)}",
    )
    profile_parser.add_argument(
        "--scale", default=None, choices=["tiny", "small", "paper"],
        help="parameter preset (default: $REPRO_SCALE or 'small')",
    )
    profile_parser.add_argument("--seed", type=int, default=42)
    profile_parser.add_argument(
        "--nodes", type=_positive_int, default=1024, metavar="N",
        help="network size for the 'macro' cell (default 1024)",
    )
    profile_parser.add_argument(
        "--top", type=_positive_int, default=25, metavar="N",
        help="number of hot spots to print (default 25)",
    )
    profile_parser.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "calls"],
        help="pstats sort order (default: cumulative)",
    )
    profile_parser.set_defaults(fn=_cmd_profile)

    scenarios_parser = sub.add_parser(
        "scenarios", help="adversarial scenario engine"
    )
    scenarios_sub = scenarios_parser.add_subparsers(
        dest="scenarios_command", required=True
    )
    scen_list = scenarios_sub.add_parser(
        "list", help="list the built-in scenarios"
    )
    scen_list.set_defaults(fn=_cmd_scenarios_list)
    scen_run = scenarios_sub.add_parser(
        "run", help="run a scenario with runtime invariants"
    )
    scen_run.add_argument(
        "scenario", help="a scenario name (see 'scenarios list') or 'all'"
    )
    scen_run.add_argument("--seed", type=int, default=42)
    scen_run.add_argument(
        "--no-invariants", action="store_true",
        help="run without the runtime invariant checker",
    )
    scen_run.add_argument(
        "--convergence", action="store_true",
        help="also run the quiescence convergence audit (subscribed "
             "caches hold the authority's settled versions or recorded "
             "a degraded read)",
    )
    scen_run.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-send loss probability; any of --loss/--duplicate/"
             "--jitter above zero reruns the scenario over a seeded "
             "unreliable transport with recovery and the convergence "
             "audit on (default 0)",
    )
    scen_run.add_argument(
        "--duplicate", type=float, default=0.0, metavar="P",
        help="per-send duplicate-delivery probability (default 0)",
    )
    scen_run.add_argument(
        "--jitter", type=float, default=0.0, metavar="SECONDS",
        help="max extra per-send delay (default 0)",
    )
    scen_run.set_defaults(fn=_cmd_scenarios_run)

    node_parser = sub.add_parser(
        "node",
        help="live CUP node daemon and its client (serve/put/get)",
    )
    node_sub = node_parser.add_subparsers(dest="node_command", required=True)

    node_serve = node_sub.add_parser(
        "serve",
        help="listen and host a CUP node: found a cluster, or join one "
             "through the given seed members",
    )
    node_serve.add_argument(
        "peers", nargs="*", metavar="HOST:PORT",
        help="existing members to join through (none = found a cluster)",
    )
    node_serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    )
    node_serve.add_argument(
        "--port", type=int, default=None,
        help="listen port (default 9400 when founding; when joining, "
             "0 = pick a free port)",
    )
    node_serve.add_argument(
        "--node-id", default=None, metavar="HOST:PORT",
        help="cluster identity; defaults to the bound host:port and "
             "must stay dialable (ids double as addresses)",
    )
    node_serve.add_argument(
        "--mode", default="cup", choices=["cup", "standard"],
        help="CUP propagation or standard pull-through caching",
    )
    node_serve.add_argument(
        "--policy", default="second-chance", metavar="POLICY",
        help="cut-off policy spec (default second-chance)",
    )
    node_serve.add_argument("--pfu-timeout", type=float, default=3.0,
                            metavar="S", help="pending-first-update timeout")
    node_serve.add_argument("--keepalive-period", type=float, default=2.0,
                            metavar="S", help="heartbeat period (default 2s)")
    node_serve.add_argument(
        "--keepalive-misses", type=_positive_int, default=3,
        metavar="N", help="silent periods before suspecting a peer",
    )
    node_serve.add_argument(
        "--no-invariants", action="store_true",
        help="run without the attached invariant checker",
    )
    node_serve.add_argument(
        "--no-recovery", action="store_true",
        help="disable gap-detection/NACK recovery",
    )
    node_serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persist durable node state here and warm-rejoin from "
             "it at boot (default: stateless)",
    )
    node_serve.add_argument(
        "--snapshot-interval", type=float, default=5.0, metavar="S",
        help="write-behind snapshot cadence with --state-dir "
             "(default 5s)",
    )
    node_serve.add_argument("--quiet", action="store_true",
                            help="suppress membership/lifecycle logging")
    node_serve.set_defaults(fn=_cmd_node_serve)

    def _add_client_args(p):
        p.add_argument(
            "--node", default="127.0.0.1:9400", metavar="HOST:PORT",
            help="daemon to talk to (default 127.0.0.1:9400)",
        )
        p.add_argument("--timeout", type=float, default=10.0, metavar="S",
                       help="socket timeout (default 10s)")

    node_put = node_sub.add_parser(
        "put", help="announce a replica birth/refresh for a key"
    )
    _add_client_args(node_put)
    node_put.add_argument("key")
    node_put.add_argument("replica_id")
    node_put.add_argument("--address", default="",
                          help="content address the replica serves")
    node_put.add_argument("--lifetime", type=float, default=300.0,
                          metavar="S", help="entry lifetime (default 300s)")
    node_put.add_argument(
        "--event", default="birth", choices=["birth", "refresh", "death"],
        help="replica control event (default birth)",
    )
    node_put.set_defaults(fn=_cmd_node_put)

    node_get = node_sub.add_parser(
        "get", help="query a key through the CUP machinery"
    )
    _add_client_args(node_get)
    node_get.add_argument("key")
    node_get.add_argument(
        "--wait", type=float, default=5.0, metavar="S",
        help="how long the daemon may wait for fresh entries (default 5s)",
    )
    node_get.set_defaults(fn=_cmd_node_get)

    node_info = node_sub.add_parser(
        "info", help="membership, transport counters, recovery report"
    )
    _add_client_args(node_info)
    node_info.set_defaults(fn=_cmd_node_info)

    node_audit = node_sub.add_parser(
        "audit", help="run the invariant checker's quiescence audit"
    )
    _add_client_args(node_audit)
    node_audit.set_defaults(fn=_cmd_node_audit)

    node_stop = node_sub.add_parser(
        "stop", help="ask a daemon to leave the cluster and exit"
    )
    _add_client_args(node_stop)
    node_stop.set_defaults(fn=_cmd_node_stop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
