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

Suites (``bench_common.SUITES``): ``quick`` (~6K edges, CI smoke) and
``full`` (~100K edges, the original perf target).  Every speedup column
is relative to the ``dijkstra`` reference.

The regression gate compares the *speedup ratio* of ``delta-numpy``
over ``dijkstra`` against the committed baseline: ratios are far more
stable across machines than absolute seconds.  The gate fails (exit
code 1) when the measured speedup drops below ``(1 - tolerance)`` times
the baseline speedup (default tolerance 20%); each graph's verdict is
written into the record's ``gate`` object.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.shortest_paths.backends import (
    DEFAULT_BACKEND,
    available_backends,
    compute_multisource,
    verify_backends_agree,
)

# loaded by file path too (tests/test_bench_floors.py), so put the
# shared helpers' directory on the path explicitly
HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_common import parse_args, pick_seeds, run  # noqa: E402

#: the vectorisation gate: delta-numpy vs the dijkstra reference
GATED_BACKEND = "delta-numpy"
REFERENCE_BACKEND = DEFAULT_BACKEND


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


def main(argv: list[str] | None = None) -> int:
    args = parse_args(__doc__, "BENCH_backends.json", argv)
    return run(
        args,
        bench_graph,
        kind="backends",
        gated=GATED_BACKEND,
        reference=REFERENCE_BACKEND,
    )


if __name__ == "__main__":
    sys.exit(main())
