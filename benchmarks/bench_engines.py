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
    PYTHONPATH=src python benchmarks/bench_engines.py --suite scale  # 1M edges
    PYTHONPATH=src python benchmarks/bench_engines.py --quick \
        --check benchmarks/BENCH_engines_baseline.json            # regression gate

Suites: ``quick`` (~6K edges), ``full`` (~100K edges), ``scale`` (1M
edges — only the vectorised/compiled engines run; the per-message
``bsp``/``async-heap`` executors push millions of Python callbacks and
would take hours, so the scale speedup column is relative to
``bsp-batched``) and ``xl`` (10M edges, on-demand, no committed
baseline).  Native (numba) kernels are compiled by an explicit
:func:`repro.native.warmup` call before any timing loop (pinned cache
dir, see ``repro.native``), so JIT compilation never lands inside a
timing column.  The ``bsp-native`` engine is gated against
``bsp-batched`` with ``--min-speedup-native`` (the CI numba job uses
2.0 on the scale suite); without numba the entry runs as its twin and
the gate is skipped with a note.

The regression gate compares the *wall-clock speedup ratio* of the
vectorised ``bsp-batched`` engine over the per-message ``bsp`` engine
against the committed baseline: ratios are far more stable across
machines than absolute seconds.  The gate fails (exit code 1) when the
measured speedup drops below ``(1 - tolerance)`` times the baseline
speedup (default tolerance 20%), or — with ``--min-speedup`` — below an
absolute floor (the acceptance target is >=3x on the 100K-edge full
suite; quick-suite graphs are too small to amortise array overhead, so
the floor there is correspondingly lower).  Every ``--min-*`` floor
needs ``--check``: given without it, the floor could never fail, so it
is a usage error (exit 2) before any timing.

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
from repro.native import native_status, warmup
from repro.runtime.engines import (
    available_engines,
    engine_availability,
    run_phase_with,
    verify_engines_agree,
)
from repro.runtime.partition import block_partition

#: the engine whose speedup is gated, and its reference
GATED_ENGINE = "bsp-batched"
REFERENCE_ENGINE = "bsp"
#: the JIT-tier gate: bsp-native vs bsp-batched (skipped without numba)
NATIVE_ENGINE = "bsp-native"
NATIVE_REFERENCE = "bsp-batched"

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
    "scale": {
        "rmat-1m-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(17, 8, seed=1), (1, 100), seed=2
            ),
            50,
        ),
        "er-1m-w100": (
            lambda: assign_uniform_weights(
                erdos_renyi_graph(250_000, 1_000_000, seed=3), (1, 100), seed=4
            ),
            50,
        ),
    },
    "xl": {
        "rmat-10m-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(20, 10, seed=1), (1, 100), seed=2
            ),
            100,
        ),
    },
}

#: which engines a suite runs (None = every registered engine) and
#: which one its speedup column is relative to.  The per-message
#: executors (async-heap, bsp) are infeasible at >=1M edges, so the
#: scale/xl suites run the vectorised family and rebase on bsp-batched.
SUITE_ENGINES: dict[str, list[str] | None] = {
    "full": None,
    "quick": None,
    "scale": ["bsp-batched", "bsp-native"],
    "xl": ["bsp-batched", "bsp-native"],
}
SUITE_REFERENCE = {
    "full": REFERENCE_ENGINE,
    "quick": REFERENCE_ENGINE,
    "scale": "bsp-batched",
    "xl": "bsp-batched",
}


def pick_seeds(graph, k: int, rng_seed: int = 1) -> np.ndarray:
    """``k`` distinct seeds from the largest component."""
    comp = largest_component_vertices(graph)
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(comp, size=min(k, comp.size), replace=False))


def suite_engine_names(suite: str) -> list[str]:
    """The suite's engine subset, restricted to registered names."""
    subset = SUITE_ENGINES[suite]
    names = available_engines()
    if subset is None:
        return names
    return [e for e in subset if e in names]


def bench_graph(
    name: str, builder, k: int, repeats: int,
    engine_names: list[str], reference: str,
) -> dict:
    """Time the suite's engines on one graph; returns the record."""
    graph = builder()
    seeds = pick_seeds(graph, k)
    partition = block_partition(graph, N_RANKS)

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
    count_ref = reference if reference.startswith("bsp") else REFERENCE_ENGINE
    ref_stats = verified[count_ref].stats
    for gated in engine_names:
        if not gated.startswith("bsp") or gated == count_ref:
            continue
        gated_stats = verified[gated].stats
        if (ref_stats.n_messages_local, ref_stats.n_messages_remote) != (
            gated_stats.n_messages_local,
            gated_stats.n_messages_remote,
        ):
            raise AssertionError(
                f"{gated} message counts diverged from {count_ref}"
            )

    engines: dict[str, dict] = {}
    availability = engine_availability()
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
                    "status": availability[engine]["status"],
                }
        engines[engine] = best
    ref = engines[reference]["seconds"]
    for record in engines.values():
        record["speedup"] = round(ref / record["seconds"], 3)

    print(f"{name}: |V|={graph.n_vertices} |E|={graph.n_edges} |S|={seeds.size}")
    for engine, record in engines.items():
        ss = record["supersteps"]
        note = "" if record["status"] == "available" else f" [{record['status']}]"
        print(
            f"  {engine:14s} {record['seconds'] * 1e3:9.2f} ms"
            f"  {record['speedup']:6.2f}x vs {reference}"
            f"  msgs={record['messages']}"
            + (f" supersteps={ss}" if ss is not None else "")
            + note
        )
    return {
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "n_seeds": int(seeds.size),
        "n_ranks": N_RANKS,
        "reference": reference,
        "engines": engines,
    }


def check_baseline(
    results: dict,
    baseline_path: Path,
    tolerance: float,
    min_speedup: float | None,
    min_speedup_native: float | None,
) -> int:
    """Gate: fail when a gated engine's speedup regressed.

    ``bsp-batched`` is compared against its baseline entry; a
    graph/engine pair absent from the baseline is skipped (lets the
    baseline trail new suites by one PR).  The JIT-tier gate
    (``bsp-native`` vs ``bsp-batched``) additionally needs numba —
    without it the ratio measures the fallback twin, so that gate is
    skipped with a note.
    """
    baseline = json.loads(baseline_path.read_text())
    native_active = native_status()["available"]
    failures = []
    for name, record in results.items():
        base_graph = baseline.get("results", {}).get(name)
        if base_graph is None:
            print(f"[check] {name}: no baseline entry, skipping")
            continue
        engines = record["engines"]
        reference = record.get("reference", REFERENCE_ENGINE)
        if GATED_ENGINE in engines and GATED_ENGINE != reference:
            base_engine = base_graph["engines"].get(GATED_ENGINE)
            if base_engine is None:
                print(f"[check] {name}: no {GATED_ENGINE} baseline, skipping")
            else:
                base = base_engine["speedup"]
                measured = engines[GATED_ENGINE]["speedup"]
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
        if NATIVE_ENGINE in engines:
            if not native_active:
                print(
                    f"[check] {name}: {NATIVE_ENGINE} runs as its twin "
                    f"(numba absent), JIT gate skipped"
                )
            else:
                measured = (
                    engines[NATIVE_REFERENCE]["seconds"]
                    / engines[NATIVE_ENGINE]["seconds"]
                )
                floor = 0.0
                base_engine = base_graph["engines"].get(NATIVE_ENGINE)
                if (
                    base_engine is not None
                    and base_engine.get("status") == "available"
                ):
                    base_ref = base_graph["engines"][NATIVE_REFERENCE]
                    base = base_ref["seconds"] / base_engine["seconds"]
                    floor = base * (1.0 - tolerance)
                if min_speedup_native is not None:
                    floor = max(floor, min_speedup_native)
                status = "OK" if measured >= floor else "REGRESSED"
                print(
                    f"[check] {name}: {NATIVE_ENGINE} speedup {measured:.2f}x "
                    f"vs {NATIVE_REFERENCE} (floor {floor:.2f}x) {status}"
                )
                if measured < floor:
                    failures.append(f"{name}:{NATIVE_ENGINE}")
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
        help="workload size: quick (~6K edges), full (~100K, default), "
        "scale (1M, vectorised/compiled engines only), xl (10M, on-demand)",
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
    parser.add_argument(
        "--min-speedup-native", type=float, default=None,
        help="absolute floor for bsp-native vs bsp-batched (the CI "
        "numba job gates 2.0 on the scale suite); ignored without numba",
    )
    args = parser.parse_args(argv)
    if args.suite and args.quick:
        parser.error("--quick and --suite are mutually exclusive")
    if args.check is None:
        for flag in ("--min-speedup", "--min-speedup-native"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                parser.error(f"{flag} needs --check (without it no floor is applied)")
    suite = args.suite or ("quick" if args.quick else "full")

    status = native_status()
    n_warmed = warmup()  # JIT compilation happens HERE, not in a timing loop
    print(
        f"native tier: {'numba ' + str(status['version']) if status['available'] else 'absent'}"
        + (f" (warmed {n_warmed} kernel modules,"
           f" cache {status['cache_dir']})" if status["available"] else
           f" ({status['reason']}) — bsp-native runs as its NumPy twin")
    )

    engine_names = suite_engine_names(suite)
    reference = SUITE_REFERENCE[suite]
    results = {
        name: bench_graph(name, builder, k, args.repeats, engine_names, reference)
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
            "native_engine": NATIVE_ENGINE,
            "reference_engine": reference,
            "native": status,
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check is not None:
        return check_baseline(
            results,
            args.check,
            args.tolerance,
            args.min_speedup,
            args.min_speedup_native,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
