"""Benchmark the pluggable multi-source shortest-path backends.

Times every registered backend (``repro.shortest_paths.backends``) on
generator graphs, verifies they agree bit-for-bit before any number is
recorded, and writes ``BENCH_backends.json`` — the perf-trajectory
record the CI bench-smoke job uploads as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py             # full suite
    PYTHONPATH=src python benchmarks/bench_backends.py --quick     # tiny CI suite
    PYTHONPATH=src python benchmarks/bench_backends.py --suite scale  # 1M edges
    PYTHONPATH=src python benchmarks/bench_backends.py --suite xl     # 10M edges
    PYTHONPATH=src python benchmarks/bench_backends.py --quick \
        --check benchmarks/BENCH_backends_baseline.json            # regression gate

Suites: ``quick`` (~6K edges, CI smoke), ``full`` (~100K edges, the
original perf target), ``scale`` (1M edges — the JIT-tier target; only
the compiled/vectorised backends run, the pure-Python kernels would
take hours) and ``xl`` (10M edges, on-demand — same subset, minutes
per backend; no committed baseline, run it when touching the kernels).
Every native (numba) kernel is compiled by an explicit
:func:`repro.native.warmup` call *before* any timing loop, so JIT
compilation never lands inside a timing column, and the numba cache
directory is pinned (see ``repro.native``) so repeated runs reload
compiled artifacts instead of recompiling.

The regression gate compares *speedup ratios* against the committed
baseline: ratios are far more stable across machines than absolute
seconds.  The gate fails (exit code 1) when a measured speedup drops
below ``(1 - tolerance)`` times the baseline speedup (default
tolerance 20%), or below an absolute floor.  Two ratios are gated:

* ``delta-numpy`` vs the suite reference (the original vectorisation
  gate, full/quick suites where the reference is ``dijkstra``);
* ``delta-numba`` vs ``delta-numpy`` (the JIT-tier gate,
  ``--min-speedup-native``; the CI numba job uses 3.0 on the scale
  suite).  Skipped with a note when numba is absent — the entry is
  then the fallback twin and the ratio is 1 by construction.

``--min-speedup-native`` without ``--check`` is a usage error (exit 2,
before any timing): a floor that is never applied would pass silently.
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
from repro.native import native_status, warmup
from repro.shortest_paths.backends import (
    available_backends,
    backend_availability,
    compute_multisource,
    verify_backends_agree,
)

#: the vectorisation gate: delta-numpy vs the suite reference
GATED_BACKEND = "delta-numpy"
#: the JIT-tier gate: delta-numba vs delta-numpy (skipped without numba)
NATIVE_BACKEND = "delta-numba"
NATIVE_REFERENCE = "delta-numpy"

#: name -> (builder, seed count); the full suite centres on the
#: ~100K-edge generator graphs named in the original perf target, the
#: scale/xl suites on the 1M/10M-edge graphs the JIT tier targets
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

#: which backends a suite runs (None = every registered backend) and
#: which one its speedup column is relative to.  The pure-Python
#: kernels (dijkstra, spfa, delta-python) are infeasible at >=1M edges,
#: so the scale/xl suites run only the vectorised/compiled tiers and
#: rebase the speedup column on ``delta-numpy``.
SUITE_BACKENDS: dict[str, list[str] | None] = {
    "full": None,
    "quick": None,
    "scale": ["delta-numpy", "delta-numba", "scipy"],
    "xl": ["delta-numpy", "delta-numba", "scipy"],
}
SUITE_REFERENCE = {
    "full": "dijkstra",
    "quick": "dijkstra",
    "scale": "delta-numpy",
    "xl": "delta-numpy",
}


def pick_seeds(graph, k: int, rng_seed: int = 1) -> np.ndarray:
    """``k`` distinct seeds from the largest component."""
    comp = largest_component_vertices(graph)
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(comp, size=min(k, comp.size), replace=False))


def suite_backend_names(suite: str) -> list[str]:
    """The suite's backend subset, restricted to registered names."""
    subset = SUITE_BACKENDS[suite]
    names = available_backends()
    if subset is None:
        return names
    return [b for b in subset if b in names]


def bench_graph(
    name: str, builder, k: int, repeats: int, backend_names: list[str],
    reference: str,
) -> dict:
    """Time the suite's backends on one graph; returns the record."""
    graph = builder()
    seeds = pick_seeds(graph, k)
    # never record numbers for wrong answers
    verify_backends_agree(graph, seeds, backends=backend_names)

    backends: dict[str, dict] = {}
    availability = backend_availability()
    for backend in backend_names:
        best = min(
            compute_multisource(graph, seeds, backend=backend).elapsed_s
            for _ in range(repeats)
        )
        backends[backend] = {
            "seconds": round(best, 6),
            "status": availability[backend]["status"],
        }
    ref = backends[reference]["seconds"]
    for record in backends.values():
        record["speedup"] = round(ref / record["seconds"], 3)

    print(f"{name}: |V|={graph.n_vertices} |E|={graph.n_edges} |S|={seeds.size}")
    for backend, record in backends.items():
        note = "" if record["status"] == "available" else f" [{record['status']}]"
        print(
            f"  {backend:14s} {record['seconds'] * 1e3:9.2f} ms"
            f"  {record['speedup']:6.2f}x vs {reference}{note}"
        )
    return {
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "n_seeds": int(seeds.size),
        "reference": reference,
        "backends": backends,
    }


def check_baseline(
    results: dict,
    baseline_path: Path,
    tolerance: float,
    min_speedup_native: float | None,
) -> int:
    """Gate: fail when a gated speedup ratio regressed.

    The vectorisation gate (``delta-numpy`` vs the suite reference)
    runs whenever both appear in a graph's record and the baseline has
    an entry.  The JIT-tier gate (``delta-numba`` vs ``delta-numpy``)
    additionally needs numba: without it the entry is the fallback twin
    and the ratio is ~1 by construction, so the gate is skipped with a
    note instead of asserting a meaningless number.
    """
    baseline = json.loads(baseline_path.read_text())
    native_active = native_status()["available"]
    failures = []
    for name, record in results.items():
        base_graph = baseline.get("results", {}).get(name)
        if base_graph is None:
            print(f"[check] {name}: no baseline entry, skipping")
            continue
        backends = record["backends"]
        reference = record.get("reference", "dijkstra")
        # gate 1: the vectorised backend vs the suite reference
        if GATED_BACKEND in backends and reference != GATED_BACKEND:
            base_entry = base_graph["backends"].get(GATED_BACKEND)
            if base_entry is None:
                print(f"[check] {name}: no {GATED_BACKEND} baseline, skipping")
            else:
                base = base_entry["speedup"]
                measured = backends[GATED_BACKEND]["speedup"]
                floor = base * (1.0 - tolerance)
                status = "OK" if measured >= floor else "REGRESSED"
                print(
                    f"[check] {name}: {GATED_BACKEND} speedup {measured:.2f}x "
                    f"(baseline {base:.2f}x, floor {floor:.2f}x) {status}"
                )
                if measured < floor:
                    failures.append(f"{name}:{GATED_BACKEND}")
        # gate 2: the JIT tier vs its NumPy twin
        if NATIVE_BACKEND in backends:
            if not native_active:
                print(
                    f"[check] {name}: {NATIVE_BACKEND} is the fallback twin "
                    f"(numba absent), JIT gate skipped"
                )
            else:
                measured = (
                    backends[NATIVE_REFERENCE]["seconds"]
                    / backends[NATIVE_BACKEND]["seconds"]
                )
                floor = 0.0
                base_entry = base_graph["backends"].get(NATIVE_BACKEND)
                if (
                    base_entry is not None
                    and base_entry.get("status") == "available"
                ):
                    base_ref = base_graph["backends"][NATIVE_REFERENCE]
                    base = base_ref["seconds"] / base_entry["seconds"]
                    floor = base * (1.0 - tolerance)
                if min_speedup_native is not None:
                    floor = max(floor, min_speedup_native)
                status = "OK" if measured >= floor else "REGRESSED"
                print(
                    f"[check] {name}: {NATIVE_BACKEND} speedup {measured:.2f}x "
                    f"vs {NATIVE_REFERENCE} (floor {floor:.2f}x) {status}"
                )
                if measured < floor:
                    failures.append(f"{name}:{NATIVE_BACKEND}")
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
        "scale (1M, compiled/vectorised backends only), xl (10M, on-demand)",
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
        help="baseline JSON; exit 1 if a gated speedup regressed",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional speedup regression vs baseline (default 0.20)",
    )
    parser.add_argument(
        "--min-speedup-native", type=float, default=None,
        help="absolute floor for delta-numba vs delta-numpy (the CI "
        "numba job gates 3.0 on the scale suite); ignored without numba",
    )
    args = parser.parse_args(argv)
    if args.suite and args.quick:
        parser.error("--quick and --suite are mutually exclusive")
    if args.min_speedup_native is not None and args.check is None:
        parser.error("--min-speedup-native needs --check (without it no floor is applied)")
    suite = args.suite or ("quick" if args.quick else "full")

    status = native_status()
    n_warmed = warmup()  # JIT compilation happens HERE, not in a timing loop
    print(
        f"native tier: {'numba ' + str(status['version']) if status['available'] else 'absent'}"
        + (f" (warmed {n_warmed} kernel modules,"
           f" cache {status['cache_dir']})" if status["available"] else
           f" ({status['reason']}) — delta-numba runs as its NumPy twin")
    )

    backend_names = suite_backend_names(suite)
    reference = SUITE_REFERENCE[suite]
    results = {
        name: bench_graph(name, builder, k, args.repeats, backend_names, reference)
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
            "native_backend": NATIVE_BACKEND,
            "reference_backend": reference,
            "native": status,
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check is not None:
        return check_baseline(
            results, args.check, args.tolerance, args.min_speedup_native
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
