"""Command-line interface: ``repro-steiner``.

Subcommands
-----------
``list``
    Show every available experiment id with its title.
``run <id> [...ids] [--quick]``
    Run experiments and print their reports.
``all [--quick]``
    Run the full evaluation sweep (every table and figure), printing
    each report — the command behind EXPERIMENTS.md.
``solve --dataset LVJ --seeds 30 [--ranks 16] [--queue priority]
[--engine async-heap|bsp|bsp-batched]
[--backend simulate|dijkstra|delta-numpy]``
    One-off solve on a stand-in dataset, printing the tree summary and
    the phase breakdown.  ``--engine`` picks the runtime engine the
    message-driven phases execute on; ``--backend simulate`` (default)
    runs the
    message-driven Voronoi phase; any shortest-path backend name
    computes the identical tree via that sequential kernel.
``serve [--tcp HOST:PORT] [--preload LVJ,MCO] [--backend delta-numpy]
[--ranks 16] [--engine ...] [--batch-window-ms 5] [--max-batch 8]
[--max-queue-depth N] [--cache-size 128] [--disk-cache DIR]
[--no-cache]``
    Run the persistent solver service (see ``docs/serve.md``): graphs
    load once, concurrent requests sharing a graph are coalesced into
    fused multi-source sweeps, and repeated requests hit the result
    cache.  Default transport is line-delimited JSON on stdin/stdout;
    ``--tcp`` listens on a socket instead (``:0`` picks a free port,
    printed on startup).
``backends``
    List the multi-source shortest-path backends, one line each.
``check [PATHS...] [--format text|json] [--show-suppressed] [--list-rules]``
    Run the repo-invariant static-analysis pass (``docs/analysis.md``):
    the determinism lint, rules REP101–REP103.  Exits 0 iff every
    finding is fixed or carries a justified ``# repro: ignore[REPxxx]``
    suppression — the pre-PR gate CI runs as the blocking ``check`` job.
``engines``
    List the runtime engines, one line each.

Timing lives outside the listings: ``run ablation-kernel`` and ``run
ablation-async-vs-bsp`` compare the backends and the engines, and
``benchmarks/bench_backends.py`` / ``bench_engines.py`` gate them.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness.registry import EXPERIMENTS, run_experiment


def _cmd_list(_args) -> int:
    import importlib

    for exp_id, module_path in EXPERIMENTS.items():
        mod = importlib.import_module(module_path)
        print(f"{exp_id:24s} {getattr(mod, 'TITLE', '')}")
    return 0


def _cmd_run(args) -> int:
    import inspect

    from repro.harness.registry import get_runner
    from repro.runtime.engines import get_engine

    engine = getattr(args, "engine", "async-heap")
    try:
        get_engine(engine)  # fail fast, before any experiment runs
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for exp_id in args.experiment:
        if (
            engine != "async-heap"
            and "engine" not in inspect.signature(get_runner(exp_id)).parameters
        ):
            print(
                f"note: {exp_id} does not thread --engine; "
                f"it runs on its default runtime",
                file=sys.stderr,
            )
        t0 = time.perf_counter()
        report = run_experiment(exp_id, quick=args.quick, engine=engine)
        if getattr(args, "json", False):
            print(report.to_json())
        else:
            print(report.render())
            print(
                f"\n[{exp_id} completed in {time.perf_counter() - t0:.1f}s wall]\n"
            )
    return 0


def _cmd_all(args) -> int:
    args.experiment = list(EXPERIMENTS)
    return _cmd_run(args)


def _cmd_solve(args) -> int:
    from repro.core.config import SolverConfig
    from repro.core.solver import DistributedSteinerSolver
    from repro.harness.datasets import load_dataset
    from repro.harness.reporting import fmt_si, fmt_time
    from repro.seeds.selection import select_seeds

    graph = load_dataset(args.dataset)
    seeds = select_seeds(graph, args.seeds, args.strategy, seed=args.seed)
    backend = None if args.backend == "simulate" else args.backend
    try:
        config = SolverConfig(
            n_ranks=args.ranks,
            discipline=args.queue,
            engine=args.engine,
            voronoi_backend=backend,
        )
    except ValueError as exc:  # e.g. a typo'd --backend/--engine name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = DistributedSteinerSolver(graph, config).solve(seeds)
    print(res.summary())
    for p in res.phases:
        print(
            f"  {p.name:<24} {fmt_time(p.sim_time):>8}  "
            f"msgs={fmt_si(p.n_messages)}"
        )
    return 0


def _cmd_serve(args) -> int:
    from repro.core.config import SolverConfig
    from repro.serve import SolveCache, SolverService, make_tcp_server, serve_stdio

    backend = None if args.backend == "simulate" else args.backend
    try:
        config = SolverConfig(
            n_ranks=args.ranks, engine=args.engine, voronoi_backend=backend
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache: SolveCache | bool = (
        False
        if args.no_cache
        else SolveCache(max_solutions=args.cache_size, disk_dir=args.disk_cache)
    )
    service = SolverService(
        config=config,
        cache=cache,
        batch_window_s=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        max_queue_depth=args.max_queue_depth,
    )
    for name in filter(None, (args.preload or "").split(",")):
        try:
            service.open_graph(name.strip())
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            service.close()
            return 2
        print(f"preloaded graph {name.strip()!r}", file=sys.stderr)

    try:
        if args.tcp:
            host, _, port_s = args.tcp.rpartition(":")
            host = host or "127.0.0.1"
            try:
                port = int(port_s)
            except ValueError:
                print(f"error: --tcp wants HOST:PORT, got {args.tcp!r}",
                      file=sys.stderr)
                return 2
            with make_tcp_server(service, host, port) as server:
                bound_host, bound_port = server.server_address[:2]
                # announced on stdout so wrappers can scrape the port
                print(f"listening on {bound_host}:{bound_port}", flush=True)
                server.serve_forever(poll_interval=0.1)
        else:
            serve_stdio(service)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        service.close()
    return 0


def _print_table(table: dict) -> int:
    """One line per entry: its name and the first line of its docstring."""
    for name, entry in table.items():
        summary = (entry.__doc__ or "").strip().splitlines()
        print(f"{name:16s} {summary[0] if summary else ''}".rstrip())
    return 0


def _cmd_backends(_args) -> int:
    from repro.shortest_paths.backends import BACKENDS

    return _print_table(BACKENDS)


def _cmd_engines(_args) -> int:
    from repro.runtime.engines import ENGINES

    return _print_table(ENGINES)


def _cmd_check(args) -> int:
    from repro.analysis import rule_catalogue, run_check

    if args.list_rules:
        for rule_id, text in rule_catalogue().items():
            print(f"{rule_id}  {text}")
        return 0
    report = run_check(args.paths)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render(show_suppressed=args.show_suppressed))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-steiner`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-steiner",
        description="Reproduction harness for distributed 2-approximation "
        "Steiner minimal trees (Reza et al., IPDPS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one or more experiments")
    p_run.add_argument("experiment", nargs="+", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--quick", action="store_true", help="shrunk sweeps")
    p_run.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_run.add_argument(
        "--engine",
        default="async-heap",
        help="runtime engine, forwarded to experiments that accept it "
        "(see `repro-steiner engines`)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("all", help="run the full evaluation sweep")
    p_all.add_argument("--quick", action="store_true")
    p_all.add_argument("--engine", default="async-heap", help="runtime engine")
    p_all.set_defaults(func=_cmd_all)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("--dataset", default="LVJ")
    p_solve.add_argument("--seeds", type=int, default=30)
    p_solve.add_argument("--ranks", type=int, default=16)
    p_solve.add_argument(
        "--queue", choices=["fifo", "priority"], default="priority"
    )
    p_solve.add_argument(
        "--strategy",
        choices=["bfs-level", "uniform-random", "eccentric", "proximate"],
        default="bfs-level",
    )
    p_solve.add_argument("--seed", type=int, default=1, help="RNG seed")
    p_solve.add_argument(
        "--engine",
        default="async-heap",
        help="runtime engine for the message-driven phases "
        "(see `repro-steiner engines`)",
    )
    p_solve.add_argument(
        "--backend",
        default="simulate",
        help="Voronoi phase: 'simulate' (message-driven engine, default) "
        "or a shortest-path backend name "
        "(see `repro-steiner backends`)",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_serve = sub.add_parser(
        "serve", help="run the persistent solver service"
    )
    p_serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="listen on a TCP socket instead of stdin/stdout "
        "(':0' binds a free port, printed on startup)",
    )
    p_serve.add_argument(
        "--preload",
        default="",
        metavar="NAMES",
        help="comma-separated dataset names to load before serving",
    )
    p_serve.add_argument(
        "--backend",
        default="delta-numpy",
        help="default Voronoi backend for requests that do not override "
        "it; 'simulate' runs the message-driven engine (no sweep fusion)",
    )
    p_serve.add_argument("--ranks", type=int, default=16)
    p_serve.add_argument("--engine", default="async-heap")
    p_serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        help="how long to wait for coalescable requests after the first "
        "pending one (0 disables batching delays)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8,
        help="max requests fused into one multi-source sweep",
    )
    p_serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="bound the admission queue: beyond N queued requests new "
        "ones are shed with a structured error carrying retry_after_ms "
        "(default: unbounded)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=128,
        help="LRU capacity (solutions) of the result cache",
    )
    p_serve.add_argument(
        "--disk-cache", default=None, metavar="DIR",
        help="persist solutions under DIR so they survive restarts",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true", help="disable result caching"
    )
    p_serve.set_defaults(func=_cmd_serve)

    sub.add_parser(
        "backends", help="list the shortest-path backends"
    ).set_defaults(func=_cmd_backends)

    p_check = sub.add_parser(
        "check", help="run the repo-invariant static-analysis pass"
    )
    p_check.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks", "tests"],
        metavar="PATH",
        help="files/directories to check (default: src benchmarks tests)",
    )
    p_check.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json is the CI artifact form)",
    )
    p_check.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by # repro: ignore[...]",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_check.set_defaults(func=_cmd_check)

    sub.add_parser(
        "engines", help="list the runtime engines"
    ).set_defaults(func=_cmd_engines)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro-steiner list | head`
        import os

        # flush-safe exit: stdout is already gone
        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
