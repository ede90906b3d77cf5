"""Benchmark the pluggable multi-source shortest-path backends.

Times every registered backend (``repro.shortest_paths.backends``) on
generator graphs, verifies they agree bit-for-bit before any number is
recorded, and writes ``BENCH_backends.json`` — the perf-trajectory
record the CI bench-smoke job uploads as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py             # full suite
    PYTHONPATH=src python benchmarks/bench_backends.py --quick     # tiny CI suite
    PYTHONPATH=src python benchmarks/bench_backends.py --quick \
        --check benchmarks/BENCH_backends_baseline.json            # regression gate

Suites: ``quick`` (~6K edges, CI smoke) and ``full`` (~100K edges, the
original perf target).  Every speedup column is relative to the
``dijkstra`` reference.

The regression gate compares the *speedup ratio* of ``delta-numpy``
over ``dijkstra`` against the committed baseline: ratios are far more
stable across machines than absolute seconds.  The gate fails (exit
code 1) when the measured speedup drops below ``(1 - tolerance)`` times
the baseline speedup (default tolerance 20%).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.graph.connectivity import largest_component_vertices
from repro.graph.generators import erdos_renyi_graph, grid_graph, rmat_graph
from repro.graph.weights import assign_uniform_weights
from repro.shortest_paths.backends import (
    DEFAULT_BACKEND,
    available_backends,
    compute_multisource,
    verify_backends_agree,
)

#: the vectorisation gate: delta-numpy vs the dijkstra reference
GATED_BACKEND = "delta-numpy"
REFERENCE_BACKEND = DEFAULT_BACKEND

#: name -> (builder, seed count); the full suite centres on the
#: ~100K-edge generator graphs named in the original perf target
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
    """Time every registered backend on one graph; returns the record."""
    graph = builder()
    seeds = pick_seeds(graph, k)
    backend_names = available_backends()
    # never record numbers for wrong answers
    verify_backends_agree(graph, seeds, backends=backend_names)

    backends: dict[str, dict] = {}
    for backend in backend_names:
        best = min(
            compute_multisource(graph, seeds, backend=backend).elapsed_s
            for _ in range(repeats)
        )
        backends[backend] = {"seconds": round(best, 6)}
    ref = backends[REFERENCE_BACKEND]["seconds"]
    for record in backends.values():
        record["speedup"] = round(ref / record["seconds"], 3)

    print(f"{name}: |V|={graph.n_vertices} |E|={graph.n_edges} |S|={seeds.size}")
    for backend, record in backends.items():
        print(
            f"  {backend:14s} {record['seconds'] * 1e3:9.2f} ms"
            f"  {record['speedup']:6.2f}x vs {REFERENCE_BACKEND}"
        )
    return {
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "n_seeds": int(seeds.size),
        "backends": backends,
    }


def check_baseline(results: dict, baseline_path: Path, tolerance: float) -> int:
    """Gate: fail when the ``delta-numpy`` speedup ratio regressed.

    A graph absent from the baseline is skipped (lets the baseline
    trail new suites by one PR).
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, record in results.items():
        base_graph = baseline.get("results", {}).get(name)
        if base_graph is None:
            print(f"[check] {name}: no baseline entry, skipping")
            continue
        base_entry = base_graph["backends"].get(GATED_BACKEND)
        if base_entry is None:
            print(f"[check] {name}: no {GATED_BACKEND} baseline, skipping")
            continue
        base = base_entry["speedup"]
        measured = record["backends"][GATED_BACKEND]["speedup"]
        floor = base * (1.0 - tolerance)
        status = "OK" if measured >= floor else "REGRESSED"
        print(
            f"[check] {name}: {GATED_BACKEND} speedup {measured:.2f}x "
            f"(baseline {base:.2f}x, floor {floor:.2f}x) {status}"
        )
        if measured < floor:
            failures.append(f"{name}:{GATED_BACKEND}")
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
        "--out", type=Path, default=Path("BENCH_backends.json"),
        help="output JSON path (default: ./BENCH_backends.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best-of"
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON; exit 1 if the gated speedup regressed",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional speedup regression vs baseline (default 0.20)",
    )
    args = parser.parse_args(argv)
    if args.suite and args.quick:
        parser.error("--quick and --suite are mutually exclusive")
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
            "gated_backend": GATED_BACKEND,
            "reference_backend": REFERENCE_BACKEND,
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check is not None:
        return check_baseline(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
