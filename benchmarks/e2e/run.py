"""End-to-end benchmark: one ``Session.solve()`` or one served request.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                         # all workloads
    python3 benchmarks/e2e/run.py --workload session-rmat-k30 --seed 3
    python3 benchmarks/e2e/run.py --trace                 # per-layer run
    python3 benchmarks/e2e/run.py --smoke                 # tiny graphs

Without ``--workload`` every workload runs in its own child process.
A run prints every metric with its unit and sample count, checks every
result, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace``
the per-layer ones).  A failed correctness check prints no numbers and
exits 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import numbers
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any

import bootstrap

#: end-to-end metrics of the final JSON line, with their units
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics of the final JSON line: those every workload runs
PER_LAYER = (
    "seeds.validate_ms",
    "phase1.sweep_ms",
    "distance_graph.build_ms",
    "distance_graph.cost_model_ms",
    "distance_graph.seed_indices_ms",
    "csr.edge_array_ms",
    "partition.arc_arrays_ms",
    "mst.prim_ms",
    "runtime.tree_edge_phase_ms",
    "solver.self_ms",
    "distance_graph.cross_pairs",
    "runtime.voronoi_messages",
    "runtime.tree_edge_messages",
    "shortest_paths.sweeps_per_solve",
    "cache.hit_ratio",
    "service.coalesced_ratio",
)
DEFAULT_SECONDS = 20.0
SMOKE_SECONDS = 1.0
DIGESTS = bootstrap.HERE / "digests.json"
DEFAULT_SEED = 1


def unit_of(metric: str) -> str:
    if "_ms" in metric:
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"


class InvalidRun(Exception):
    """The measurement itself is unsound (the load generator lagged)."""


@dataclass
class Measured:
    graph: str
    k: int
    setup_s: list[float]
    requests: list  # timed workloads.Request, untraced
    speed: Any  # workloads.HostSpeed sampled alongside them
    rss_mb: float
    digest: str
    n_reference: int
    wall_s: float | None = None  # open loop: first send to last receipt
    lag_p95_s: float | None = None
    traced: list = field(default_factory=list)  # timed requests, traced
    layers: dict[str, Any] = field(default_factory=dict)
    trace_file: str | None = None


def latencies(requests: list, speed: Any = None) -> list[float]:
    """Seconds of the answered requests; at reference speed if ``speed``."""
    return [r.latency_s / (speed.factor(r.at) if speed else 1.0)
            for r in requests if r.latency_s is not None]


def measure_session(wl: Any, seed: int, seconds: float, smoke: bool,
                    trace: bool) -> Measured:
    import tracing
    import workloads as wk
    from repro.api import Session

    graph, label = wk.build_graph(wl.graph, smoke)
    pool = wk.terminal_pool(graph)
    k = wl.smoke_k if smoke else wl.k
    setup = wk.session_setup(graph, wl.config, wk.seed_sets(seed, pool, k, wk.SETUP),
                             wk.N_SETUP)
    session = Session(graph, **wl.config)
    warm = wk.seed_sets(seed, pool, k, wk.WARMUP)
    for _ in range(wl.warmup):
        session.solve(next(warm))
    if trace:
        seconds /= 2  # half untraced, half traced, on the same seed sets
    speed = wk.HostSpeed()
    requests = wk.closed_loop(
        session, graph, wk.seed_sets(seed, pool, k, wk.TIMED), seconds, speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m = Measured(label, k, setup, requests, speed, rss_mb,
                 *wk.reference_check(graph, requests, wk.N_REFERENCE))
    if trace:
        recorder = tracing.Recorder()
        hooks = tracing.install(recorder)
        try:
            m.traced = wk.closed_loop(
                session, graph, wk.seed_sets(seed, pool, k, wk.TIMED), seconds,
                speed, recorder)
        finally:
            hooks.uninstall()
        wk.check_same_trees(requests, m.traced)
        tracing.finalize(recorder.spans)
        m.layers = tracing.layer_metrics(
            recorder.spans, [r.rid for r in m.traced], hooks.status)
        m.trace_file = write_trace(wl.name, seed, [("workload", recorder.spans)])
    return m


def measure_serve(wl: Any, seed: int, seconds: float, smoke: bool,
                  trace: bool) -> Measured:
    import tracing
    import workloads as wk

    graph, label = wk.build_graph(wl.graph, smoke)
    if trace:
        seconds /= 2  # one untraced and one traced server, same schedule
    run = wk.run_serve(seed, seconds, smoke, trace=False)
    m = Measured(label, wl.smoke_k if smoke else wl.k, run.report["setup_s"],
                 run.timed, run.speed, run.report["rss_mb"],
                 *wk.reference_check(graph, run.timed, wk.N_REFERENCE),
                 wall_s=run.wall_s, lag_p95_s=run.lag_p95_s)
    if trace:
        traced = wk.run_serve(seed, seconds, smoke, trace=True)
        m.lag_p95_s = max(m.lag_p95_s, traced.lag_p95_s)
        m.traced = traced.timed
        m.speed.samples += traced.speed.samples
        wk.check_same_trees(run.timed, m.traced)
        spans = tracing.from_records(traced.report["spans"])
        rids = [r.rid for r in m.traced]
        status = traced.report["hooks"]
        m.layers = tracing.layer_metrics(spans, rids, status)
        m.layers.update(tracing.serve_timings(spans, rids, traced.received, status))
        client = []
        for req in m.traced:
            if req.latency_s is not None:
                span = tracing.Span("request", None, 0, ())
                span.start, span.end = req.at, req.at + req.latency_s
                span.rids = (req.rid,)
                client.append(span)
        m.trace_file = write_trace(wl.name, seed, [("server", spans), ("client", client)])
    if m.lag_p95_s > wk.LAG_LIMIT_S:
        raise InvalidRun(f"load generator p95 lag {1e3 * m.lag_p95_s:.2f} ms "
                         f"exceeds {1e3 * wk.LAG_LIMIT_S:.0f} ms")
    return m


def write_trace(workload: str, seed: int, processes: list) -> str:
    import tracing

    path = bootstrap.OUT_DIR / f"{workload}-seed{seed}.trace.json"
    tracing.write_chrome_trace(path, processes)
    return str(path.relative_to(bootstrap.ROOT))


def end_to_end(m: Measured) -> dict[str, tuple[float, int]]:
    """``metric -> (value, sample count)`` of the untraced run."""
    import numpy as np

    lat = latencies(m.requests, m.speed)
    n = len(m.requests)
    # closed loop: solves per busy second; open loop: per wall second
    busy = m.wall_s if m.wall_s is not None else sum(lat)
    return {
        "setup_s": (statistics.median(m.setup_s), len(m.setup_s)),
        "latency_p50_ms": (1e3 * statistics.median(lat), len(lat)),
        "latency_p90_ms": (1e3 * float(np.percentile(lat, 90)), len(lat)),
        "throughput_per_s": (len(lat) / busy, len(lat)),
        "error_rate": ((n - len(lat)) / n, n),
        "peak_rss_mb": (m.rss_mb, 1),
    }


def run_one(args: argparse.Namespace) -> int:
    import workloads as wk

    wl = wk.WORKLOADS[args.workload]
    measure = measure_serve if wl.config is None else measure_session
    try:
        m = measure(wl, args.seed, args.seconds, args.smoke, bool(args.trace))
        committed = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if args.seed == DEFAULT_SEED and not args.smoke and wl.name in committed:
            if committed[wl.name] != m.digest:
                raise wk.CorrectnessError(
                    f"result_digest {m.digest} differs from the committed "
                    f"{committed[wl.name]}")
            digest_note = "matches the committed digest"
        else:
            digest_note = "no committed digest for this seed and size"
    except (wk.CorrectnessError, InvalidRun) as exc:
        print(f"{wl.name}: run rejected: {exc}", file=sys.stderr)
        return 1

    import numpy as np

    trace_state = "on" if args.trace else "off"
    print(f"== {wl.name} · seed {args.seed} · {args.seconds:g} s · trace {trace_state} ==")
    print(f"graph: {m.graph} · k={m.k} · config: {wl.config or 'SolverService()'}")
    e2e = end_to_end(m)
    for name, (value, n) in e2e.items():
        beyond = f" ({n - int(0.9 * n)} beyond p90)" if name == "latency_p90_ms" else ""
        print(f"  {name:<34} {value:>12.4f} {END_TO_END.get(name, 'ratio'):<6} "
              f"n={n}{beyond}")
    raw = latencies(m.requests)
    factors = [d / wk.REFERENCE_LOOP_S for _, d in m.speed.samples]
    print(f"  latencies are at reference host speed: host factor median "
          f"{statistics.median(factors):.3f} (range {min(factors):.3f}-"
          f"{max(factors):.3f}, {len(factors)} samples); wall p50 "
          f"{1e3 * statistics.median(raw):.4f} ms, p90 "
          f"{1e3 * float(np.percentile(raw, 90)):.4f} ms")
    if m.lag_p95_s is not None:
        print(f"  {'loadgen.lag_p95_ms':<34} {1e3 * m.lag_p95_s:>12.4f} ms     "
              f"(valid below {1e3 * wk.LAG_LIMIT_S:.0f} ms)")
    requests = m.requests + m.traced
    print(f"correctness: {sum(r.outcome is not None for r in requests)} trees "
          f"validated; {m.n_reference} identical to the Dijkstra reference")
    print(f"result_digest {m.digest} ({digest_note})")

    if args.trace:
        layers = {**m.layers, **wk.result_counts(m.traced)}
        if m.lag_p95_s is not None:
            layers["loadgen.lag_p95_ms"] = 1e3 * m.lag_p95_s
        layers["trace.overhead_ratio"] = (
            statistics.median(latencies(m.traced, m.speed))
            / statistics.median(latencies(m.requests, m.speed)))
        print(f"per-layer metrics, median per request over {len(m.traced)} traced "
              f"requests (wall self time unless stated):")
        for name in sorted(layers):
            value = layers[name]
            shown = ("not run" if value is None else value if isinstance(value, str)
                     else f"{value:>12.4f} {unit_of(name)}")
            print(f"  {name:<34} {shown}")
        print(f"trace file: {m.trace_file}")
        metrics = {
            name: {"value": float(v) if isinstance(v := layers.get(name), numbers.Real)
                   else None, "unit": unit_of(name)}
            for name in PER_LAYER
        }
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = sum(r.outcome is None for r in requests)
    print(json.dumps({"correct": True, "attempted": len(requests), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    import workloads as wk

    status = 0
    for name in wk.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        sys.stdout.flush()
        status |= subprocess.run(cmd, env=bootstrap.child_env(), cwd=bootstrap.ROOT,
                                 timeout=600, check=False).returncode
    return 1 if status else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all, each in a child)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window per run (default {DEFAULT_SECONDS:g}, "
                             f"smoke {SMOKE_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (bare flag means 1)")
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, short runs")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    bootstrap.prepare()

    import workloads as wk

    if args.workload is not None and args.workload not in wk.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(wk.WORKLOADS)}")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
