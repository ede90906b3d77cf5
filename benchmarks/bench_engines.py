"""Benchmark the pluggable runtime engines.

Times every registered engine (``repro.runtime.engines``) driving the
Voronoi-cell program over a partitioned generator graph, verifies the
converged ``(src, dist)`` state is identical — and that the batched BSP
engine reproduces the per-message BSP engine's message counts exactly —
before any number is recorded, and writes ``BENCH_engines.json``: the
perf-trajectory record the CI bench-smoke job uploads as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_engines.py             # full suite
    PYTHONPATH=src python benchmarks/bench_engines.py --quick     # tiny CI suite
    PYTHONPATH=src python benchmarks/bench_engines.py --quick \
        --check benchmarks/BENCH_engines_baseline.json            # regression gate

Suites: ``quick`` (~6K edges) and ``full`` (~100K edges).  Every
speedup column is relative to the per-message ``bsp`` engine.

The regression gate compares the *wall-clock speedup ratio* of the
vectorised ``bsp-batched`` engine over the per-message ``bsp`` engine
against the committed baseline: ratios are far more stable across
machines than absolute seconds.  The gate fails (exit code 1) when the
measured speedup drops below ``(1 - tolerance)`` times the baseline
speedup (default tolerance 20%), or — with ``--min-speedup`` — below an
absolute floor (the acceptance target is >=3x on the 100K-edge full
suite; quick-suite graphs are too small to amortise array overhead, so
the floor there is correspondingly lower).  ``--min-speedup`` needs
``--check``: given without it, the floor could never fail, so it is a
usage error (exit 2) before any timing.

Determinism: every graph is built from fixed generator seeds, seeds are
drawn from a fixed RNG and engines iterate in registry order (default
first, rest alphabetical) — so everything in two bench logs except the
wall-clock columns is identical line-for-line.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.voronoi_visitor import VoronoiProgram
from repro.graph.connectivity import largest_component_vertices
from repro.graph.generators import erdos_renyi_graph, grid_graph, rmat_graph
from repro.graph.weights import assign_uniform_weights
from repro.runtime.engines import (
    available_engines,
    run_phase_with,
    verify_engines_agree,
)
from repro.runtime.partition import block_partition

#: the engine whose speedup is gated, and its reference
GATED_ENGINE = "bsp-batched"
REFERENCE_ENGINE = "bsp"

#: simulated world size for every run (the paper's ranks-per-node)
N_RANKS = 16

#: name -> (builder, seed count); the full suite centres on the
#: ~100K-edge generator graphs named in the perf target
SUITES = {
    "full": {
        "rmat-100k-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(14, 7, seed=1), (1, 100), seed=2
            ),
            30,
        ),
        "er-100k-w100": (
            lambda: assign_uniform_weights(
                erdos_renyi_graph(30_000, 100_000, seed=3), (1, 100), seed=4
            ),
            30,
        ),
        "grid-100k-unit": (lambda: grid_graph(200, 250), 20),
    },
    "quick": {
        "rmat-6k-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(10, 6, seed=1), (1, 100), seed=2
            ),
            10,
        ),
        "er-6k-w100": (
            lambda: assign_uniform_weights(
                erdos_renyi_graph(2_000, 6_000, seed=3), (1, 100), seed=4
            ),
            10,
        ),
        "grid-5k-unit": (lambda: grid_graph(50, 50), 8),
    },
}


def pick_seeds(graph, k: int, rng_seed: int = 1) -> np.ndarray:
    """``k`` distinct seeds from the largest component."""
    comp = largest_component_vertices(graph)
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(comp, size=min(k, comp.size), replace=False))


def bench_graph(name: str, builder, k: int, repeats: int) -> dict:
    """Time every registered engine on one graph; returns the record."""
    graph = builder()
    seeds = pick_seeds(graph, k)
    partition = block_partition(graph, N_RANKS)
    engine_names = available_engines()

    def fresh_program() -> VoronoiProgram:
        return VoronoiProgram(partition)

    # never record numbers for wrong answers: states must be identical,
    # and the whole BSP family must agree on message counts exactly
    verified = verify_engines_agree(
        partition,
        fresh_program,
        lambda prog: prog.initial_messages(seeds),
        lambda prog: (prog.src, prog.dist),
        engines=engine_names,
    )
    ref_stats = verified[REFERENCE_ENGINE].stats
    for gated in engine_names:
        if not gated.startswith("bsp") or gated == REFERENCE_ENGINE:
            continue
        gated_stats = verified[gated].stats
        if (ref_stats.n_messages_local, ref_stats.n_messages_remote) != (
            gated_stats.n_messages_local,
            gated_stats.n_messages_remote,
        ):
            raise AssertionError(
                f"{gated} message counts diverged from {REFERENCE_ENGINE}"
            )

    engines: dict[str, dict] = {}
    for engine in engine_names:
        best = None
        for _ in range(repeats):
            prog = fresh_program()
            result = run_phase_with(
                engine,
                partition,
                prog,
                list(prog.initial_messages(seeds)),
                name="Voronoi Cell",
            )
            if best is None or result.elapsed_s < best["seconds"]:
                best = {
                    "seconds": round(result.elapsed_s, 6),
                    "messages": result.stats.n_messages,
                    "supersteps": result.n_supersteps,
                }
        engines[engine] = best
    ref = engines[REFERENCE_ENGINE]["seconds"]
    for record in engines.values():
        record["speedup"] = round(ref / record["seconds"], 3)

    print(f"{name}: |V|={graph.n_vertices} |E|={graph.n_edges} |S|={seeds.size}")
    for engine, record in engines.items():
        ss = record["supersteps"]
        print(
            f"  {engine:14s} {record['seconds'] * 1e3:9.2f} ms"
            f"  {record['speedup']:6.2f}x vs {REFERENCE_ENGINE}"
            f"  msgs={record['messages']}"
            + (f" supersteps={ss}" if ss is not None else "")
        )
    return {
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "n_seeds": int(seeds.size),
        "n_ranks": N_RANKS,
        "engines": engines,
    }


def check_baseline(
    results: dict,
    baseline_path: Path,
    tolerance: float,
    min_speedup: float | None,
) -> int:
    """Gate: fail when the ``bsp-batched`` speedup regressed.

    A graph/engine pair absent from the baseline is skipped (lets the
    baseline trail new suites by one PR).
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, record in results.items():
        base_graph = baseline.get("results", {}).get(name)
        if base_graph is None:
            print(f"[check] {name}: no baseline entry, skipping")
            continue
        base_engine = base_graph["engines"].get(GATED_ENGINE)
        if base_engine is None:
            print(f"[check] {name}: no {GATED_ENGINE} baseline, skipping")
            continue
        base = base_engine["speedup"]
        measured = record["engines"][GATED_ENGINE]["speedup"]
        floor = base * (1.0 - tolerance)
        if min_speedup is not None:
            floor = max(floor, min_speedup)
        status = "OK" if measured >= floor else "REGRESSED"
        print(
            f"[check] {name}: {GATED_ENGINE} speedup {measured:.2f}x "
            f"(baseline {base:.2f}x, floor {floor:.2f}x) {status}"
        )
        if measured < floor:
            failures.append(f"{name}:{GATED_ENGINE}")
    if failures:
        print(f"[check] FAILED: regressions on {failures}")
        return 1
    print("[check] passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny inputs (CI smoke job); alias for --suite quick",
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default=None,
        help="workload size: quick (~6K edges) or full (~100K, default)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_engines.json"),
        help="output JSON path (default: ./BENCH_engines.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best-of"
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON; exit 1 if the batched engine regressed",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional speedup regression vs baseline (default 0.20)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="absolute speedup floor for the gated engine (acceptance "
        "target: 3.0 on the full suite)",
    )
    args = parser.parse_args(argv)
    if args.suite and args.quick:
        parser.error("--quick and --suite are mutually exclusive")
    if args.min_speedup is not None and args.check is None:
        parser.error("--min-speedup needs --check (without it no floor is applied)")
    suite = args.suite or ("quick" if args.quick else "full")

    results = {
        name: bench_graph(name, builder, k, args.repeats)
        for name, (builder, k) in SUITES[suite].items()
    }
    payload = {
        "meta": {
            "suite": suite,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "gated_engine": GATED_ENGINE,
            "reference_engine": REFERENCE_ENGINE,
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check is not None:
        return check_baseline(
            results, args.check, args.tolerance, args.min_speedup
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
