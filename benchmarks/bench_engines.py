"""Benchmark the runtime engines.

Times every entry of ``repro.runtime.engines.ENGINES`` driving the
Voronoi-cell program over a partitioned generator graph, verifies the
converged ``(src, dist)`` state is identical — and that the batched BSP
engine reproduces the per-message BSP engine's message counts exactly —
before any number is recorded, and writes ``BENCH_engines.json``: the
perf-trajectory record the CI bench-smoke job uploads as an artifact.
Each time is the wall clock around one ``run_phase`` call on a fresh
engine and program, best of ``--repeats``.

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
drawn from a fixed RNG and engines iterate in ``ENGINES`` order — so
everything in two bench logs except the wall-clock columns is identical
line-for-line.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.voronoi_visitor import VoronoiProgram
from repro.runtime.engines import ENGINES, make_engine
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


def run_voronoi(engine_name: str, partition, seeds) -> tuple:
    """One Voronoi-cell phase on a fresh engine and program; returns the
    program, the engine, its stats and the wall seconds spent inside
    ``run_phase``."""
    program = VoronoiProgram(partition)
    messages = list(program.initial_messages(seeds))
    engine = make_engine(engine_name, partition)
    t0 = time.perf_counter()
    stats = engine.run_phase("Voronoi Cell", program, messages)
    return program, engine, stats, time.perf_counter() - t0


def verify_engines(partition, seeds) -> None:
    """Never record numbers for wrong answers: every engine must reach the
    identical ``(src, dist)`` state, and the whole BSP family must match
    the reference engine's message counts exactly."""
    runs = {engine: run_voronoi(engine, partition, seeds) for engine in ENGINES}
    ref_name = next(iter(runs))
    ref_prog = runs[ref_name][0]
    ref_stats = runs[REFERENCE_ENGINE][2]
    for engine, (prog, _, stats, _) in runs.items():
        if not (
            np.array_equal(prog.src, ref_prog.src)
            and np.array_equal(prog.dist, ref_prog.dist)
        ):
            raise AssertionError(f"engine {engine!r} disagrees with {ref_name!r}")
        if engine.startswith("bsp") and (
            stats.n_messages_local,
            stats.n_messages_remote,
        ) != (ref_stats.n_messages_local, ref_stats.n_messages_remote):
            raise AssertionError(
                f"{engine} message counts diverged from {REFERENCE_ENGINE}"
            )


def bench_graph(name: str, builder, k: int, repeats: int) -> dict:
    """Time every engine on one graph; returns the record."""
    graph = builder()
    seeds = pick_seeds(graph, k)
    partition = block_partition(graph, N_RANKS)
    verify_engines(partition, seeds)

    engines: dict[str, dict] = {}
    for engine in ENGINES:
        best = None
        for _ in range(repeats):
            _, eng, stats, seconds = run_voronoi(engine, partition, seeds)
            if best is None or seconds < best["seconds"]:
                best = {
                    "seconds": round(seconds, 6),
                    "messages": stats.n_messages,
                    "supersteps": getattr(eng, "n_supersteps", None),
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
