"""Benchmark the solver service: batching throughput and cache hits.

Drives a :class:`repro.serve.SolverService` with a fixed workload of
distinct solve requests against one warm graph and records, per
instance:

* **sequential** — requests answered one at a time (batching disabled):
  the baseline req/s and per-request latency distribution (p50/p99);
* **batched** — the same requests submitted concurrently into the
  batching window, so compatible requests coalesce into fused
  multi-source sweeps; before any number is recorded the batched trees
  are verified **bit-identical** to the sequential ones;
* **cache** — a repeated request served from the result cache: the
  cold/warm speedup (a hit skips the sweep and phases entirely).

Writes ``BENCH_serve.json`` — the perf-trajectory record the CI
bench-smoke job uploads as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py             # full suite
    PYTHONPATH=src python benchmarks/bench_serve.py --quick     # tiny CI suite
    PYTHONPATH=src python benchmarks/bench_serve.py --quick \
        --check benchmarks/BENCH_serve_baseline.json            # regression gate

The regression gate compares *ratios* — the batched-over-sequential
throughput ratio and the cache-hit speedup — against the committed
baseline, because ratios are far more stable across machines than
absolute req/s.  The gate fails (exit 1) when a measured ratio drops
below ``(1 - tolerance)`` times its baseline value (default tolerance
20%), or below the absolute floors given with ``--min-batch-ratio`` /
``--min-cache-speedup``.  Either floor without ``--check`` is a usage
error (exit 2, before any timing): it would never be applied.

Determinism: fixed generator seeds, fixed RNG for seed-set selection,
and a fixed request mix — two bench logs differ only in the wall-clock
columns.
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
from repro.serve import SolverService

#: ratio names the check gate understands
BATCH_RATIO = "batched_vs_sequential"
CACHE_RATIO = "cache_hit_speedup"

#: name -> (builder, n_requests, seeds_per_request)
SUITES = {
    "full": {
        "rmat-100k-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(14, 7, seed=1), (1, 100), seed=2
            ),
            8,
            20,
        ),
        "er-100k-w100": (
            lambda: assign_uniform_weights(
                erdos_renyi_graph(30_000, 100_000, seed=3), (1, 100), seed=4
            ),
            8,
            20,
        ),
        "grid-50k-unit": (lambda: grid_graph(200, 250), 8, 15),
    },
    "quick": {
        "rmat-6k-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(10, 6, seed=1), (1, 100), seed=2
            ),
            6,
            10,
        ),
        "grid-2.5k-unit": (lambda: grid_graph(50, 50), 6, 8),
    },
}


def build_requests(graph, n_requests: int, k: int, rng_seed: int = 1):
    """``n_requests`` distinct seed sets from the largest component."""
    comp = largest_component_vertices(graph)
    rng = np.random.default_rng(rng_seed)
    return [
        np.sort(rng.choice(comp, size=min(k, comp.size), replace=False))
        for _ in range(n_requests)
    ]


def run_sequential(graph, seed_sets, repeats: int):
    """One request at a time, batching and caching off.  Returns
    ``(results, best_elapsed, latencies)``."""
    best = None
    results = None
    latencies = None
    for _ in range(repeats):
        svc = SolverService(cache=False, batch_window_s=0.0, max_batch=1)
        svc.add_graph("bench", graph)
        lats = []
        out = []
        t0 = time.perf_counter()
        for i, seeds in enumerate(seed_sets):
            t1 = time.perf_counter()
            out.append(svc.solve("bench", seeds, request_id=f"seq-{i}"))
            lats.append(time.perf_counter() - t1)
        elapsed = time.perf_counter() - t0
        svc.close()
        if best is None or elapsed < best:
            best, results, latencies = elapsed, out, lats
    return results, best, latencies


def run_batched(graph, seed_sets, repeats: int):
    """All requests submitted into one batching window; latency is
    submit-to-resolution per request."""
    best = None
    results = None
    latencies = None
    coalesced = fused = 0
    for _ in range(repeats):
        svc = SolverService(
            cache=False,
            batch_window_s=0.01,
            max_batch=max(2, len(seed_sets)),
        )
        svc.add_graph("bench", graph)
        done_at = {}

        def on_done(pending, _clock=time.perf_counter, _done=done_at):
            _done[pending.request.id] = _clock()

        t0 = time.perf_counter()
        pendings = [
            svc.submit(
                {"id": f"bat-{i}", "graph": "bench", "seeds": [int(s) for s in seeds]},
                on_done=on_done,
            )
            for i, seeds in enumerate(seed_sets)
        ]
        out = [p.wait(600) for p in pendings]
        elapsed = time.perf_counter() - t0
        lats = [done_at[f"bat-{i}"] - t0 for i in range(len(seed_sets))]
        coalesced, fused = svc.counters.coalesced, svc.counters.fused_sweeps
        svc.close()
        if best is None or elapsed < best:
            best, results, latencies = elapsed, out, lats
    return results, best, latencies, coalesced, fused


def run_cache(graph, seeds, repeats: int):
    """Cold solve vs cached re-solve of the identical request."""
    best_cold = best_warm = None
    for _ in range(repeats):
        svc = SolverService(batch_window_s=0.0)
        svc.add_graph("bench", graph)
        t0 = time.perf_counter()
        cold_res = svc.solve("bench", seeds, request_id="cold")
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_res = svc.solve("bench", seeds, request_id="warm")
        warm = time.perf_counter() - t0
        svc.close()
        assert cold_res.provenance["cache_hit"] is False
        assert warm_res.provenance["cache_hit"] is True
        assert np.array_equal(cold_res.edges, warm_res.edges)
        best_cold = cold if best_cold is None else min(best_cold, cold)
        best_warm = warm if best_warm is None else min(best_warm, warm)
    return best_cold, best_warm


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def bench_instance(name: str, builder, n_requests: int, k: int, repeats: int):
    graph = builder()
    seed_sets = build_requests(graph, n_requests, k)

    seq_results, seq_s, seq_lats = run_sequential(graph, seed_sets, repeats)
    bat_results, bat_s, bat_lats, coalesced, fused = run_batched(
        graph, seed_sets, repeats
    )

    # never record numbers for wrong answers: batched == sequential,
    # bit for bit
    for i, (a, b) in enumerate(zip(seq_results, bat_results)):
        if not (
            np.array_equal(a.edges, b.edges)
            and a.total_distance == b.total_distance
        ):
            raise AssertionError(
                f"{name}: batched request {i} diverged from sequential"
            )
    if coalesced < 1:
        raise AssertionError(f"{name}: no requests were coalesced")

    cold_s, warm_s = run_cache(graph, seed_sets[0], repeats)

    record = {
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "n_requests": n_requests,
        "seeds_per_request": int(seed_sets[0].size),
        "sequential": {
            "seconds": round(seq_s, 6),
            "req_per_s": round(n_requests / seq_s, 3),
            "p50_ms": round(percentile(seq_lats, 50) * 1e3, 3),
            "p99_ms": round(percentile(seq_lats, 99) * 1e3, 3),
        },
        "batched": {
            "seconds": round(bat_s, 6),
            "req_per_s": round(n_requests / bat_s, 3),
            "p50_ms": round(percentile(bat_lats, 50) * 1e3, 3),
            "p99_ms": round(percentile(bat_lats, 99) * 1e3, 3),
            "coalesced": coalesced,
            "fused_sweeps": fused,
        },
        "cache": {
            "cold_ms": round(cold_s * 1e3, 3),
            "warm_ms": round(warm_s * 1e3, 3),
        },
        "ratios": {
            BATCH_RATIO: round(seq_s / bat_s, 3),
            CACHE_RATIO: round(cold_s / max(warm_s, 1e-9), 3),
        },
    }
    print(
        f"{name}: |V|={graph.n_vertices} |E|={graph.n_edges} "
        f"requests={n_requests}x{record['seeds_per_request']} seeds"
    )
    print(
        f"  sequential {record['sequential']['req_per_s']:8.1f} req/s  "
        f"p50={record['sequential']['p50_ms']:.2f}ms "
        f"p99={record['sequential']['p99_ms']:.2f}ms"
    )
    print(
        f"  batched    {record['batched']['req_per_s']:8.1f} req/s  "
        f"p50={record['batched']['p50_ms']:.2f}ms "
        f"p99={record['batched']['p99_ms']:.2f}ms  "
        f"({coalesced} coalesced, {fused} fused sweeps)"
    )
    print(
        f"  ratios     {BATCH_RATIO}={record['ratios'][BATCH_RATIO]:.2f}x  "
        f"{CACHE_RATIO}={record['ratios'][CACHE_RATIO]:.2f}x "
        f"(cold {record['cache']['cold_ms']:.2f}ms / "
        f"warm {record['cache']['warm_ms']:.2f}ms)"
    )
    return record


def check_baseline(
    results: dict,
    baseline_path: Path,
    tolerance: float,
    min_batch_ratio: float | None,
    min_cache_speedup: float | None,
) -> int:
    """Gate: fail when a gated ratio regressed below the floor."""
    baseline = json.loads(baseline_path.read_text())
    gates = ((BATCH_RATIO, min_batch_ratio), (CACHE_RATIO, min_cache_speedup))
    failures = []
    for name, record in results.items():
        base_graph = baseline.get("results", {}).get(name)
        if base_graph is None:
            print(f"[check] {name}: no baseline entry, skipping")
            continue
        for ratio_name, abs_floor in gates:
            base = base_graph["ratios"].get(ratio_name)
            if base is None:
                print(f"[check] {name}: no {ratio_name} baseline, skipping")
                continue
            measured = record["ratios"][ratio_name]
            floor = base * (1.0 - tolerance)
            if abs_floor is not None:
                floor = max(floor, abs_floor)
            status = "OK" if measured >= floor else "REGRESSED"
            print(
                f"[check] {name}: {ratio_name} {measured:.2f}x "
                f"(baseline {base:.2f}x, floor {floor:.2f}x) {status}"
            )
            if measured < floor:
                failures.append(f"{name}:{ratio_name}")
    if failures:
        print(f"[check] FAILED: regressions on {failures}")
        return 1
    print("[check] passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny inputs (CI smoke job)"
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_serve.json"),
        help="output JSON path (default: ./BENCH_serve.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best-of"
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON; exit 1 on a gated-ratio regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional ratio regression vs baseline (default 0.20)",
    )
    parser.add_argument(
        "--min-batch-ratio", type=float, default=None,
        help="absolute floor for batched-over-sequential throughput",
    )
    parser.add_argument(
        "--min-cache-speedup", type=float, default=None,
        help="absolute floor for the cache-hit speedup",
    )
    args = parser.parse_args(argv)
    if args.check is None:
        for flag in ("--min-batch-ratio", "--min-cache-speedup"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                parser.error(f"{flag} needs --check (without it no floor is applied)")

    suite = "quick" if args.quick else "full"
    results = {
        name: bench_instance(name, builder, n_req, k, args.repeats)
        for name, (builder, n_req, k) in SUITES[suite].items()
    }
    payload = {
        "meta": {
            "suite": suite,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "gated_ratios": [BATCH_RATIO, CACHE_RATIO],
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
            args.min_batch_ratio,
            args.min_cache_speedup,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
