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

Suites (``bench_common.SUITES``): ``quick`` (~6K edges) and ``full``
(~100K edges).  Every speedup column is relative to the per-message
``bsp`` engine.

The regression gate compares the *wall-clock speedup ratio* of the
vectorised ``bsp-batched`` engine over the per-message ``bsp`` engine
against the committed baseline: ratios are far more stable across
machines than absolute seconds.  The gate fails (exit code 1) when the
measured speedup drops below ``(1 - tolerance)`` times the baseline
speedup (default tolerance 20%), or — with ``--min-speedup`` — below an
absolute floor (the acceptance target is >=3x on the 100K-edge full
suite; quick-suite graphs are too small to amortise array overhead, so
the floor there is correspondingly lower).  Each graph's verdict is
written into the record's ``gate`` object.  ``--min-speedup`` needs
``--check``: given without it, the floor could never fail, so it is a
usage error (exit 2) before any timing.

Determinism: every graph is built from fixed generator seeds, seeds are
drawn from a fixed RNG and engines iterate in registry order (default
first, rest alphabetical) — so everything in two bench logs except the
wall-clock columns is identical line-for-line.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.voronoi_visitor import VoronoiProgram
from repro.runtime.engines import (
    available_engines,
    run_phase_with,
    verify_engines_agree,
)
from repro.runtime.partition import block_partition

# loaded by file path too (tests/test_bench_floors.py), so put the
# shared helpers' directory on the path explicitly
HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_common import parse_args, pick_seeds, run  # noqa: E402

#: the engine whose speedup is gated, and its reference
GATED_ENGINE = "bsp-batched"
REFERENCE_ENGINE = "bsp"

#: simulated world size for every run (the paper's ranks-per-node)
N_RANKS = 16


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


def main(argv: list[str] | None = None) -> int:
    args = parse_args(
        __doc__,
        "BENCH_engines.json",
        argv,
        min_speedup_help="absolute speedup floor for the gated engine "
        "(acceptance target: 3.0 on the full suite)",
    )
    return run(
        args,
        bench_graph,
        kind="engines",
        gated=GATED_ENGINE,
        reference=REFERENCE_ENGINE,
    )


if __name__ == "__main__":
    sys.exit(main())
