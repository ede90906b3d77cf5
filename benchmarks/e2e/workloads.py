"""Inputs, load loops and correctness checks of the end-to-end benchmark.

Graph generator seeds are fixed; the benchmark seed drives terminal
sampling, arrival order and repeat choice.  Seed sets are sampled
uniformly from the largest component, one independent stream per
purpose (set-up, warm-up, timed), so two workloads with the same graph
and ``k`` time the same seed sets.
"""

from __future__ import annotations

import hashlib
import json
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from bootstrap import HERE, ROOT, child_env
from repro.api import Session
from repro.core.sequential import sequential_steiner_tree
from repro.errors import ReproError
from repro.graph.connectivity import largest_component_vertices
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, rmat_graph
from repro.graph.weights import assign_uniform_weights
from repro.serve import SolverService
from repro.validation import validate_steiner_tree

GRAPH_NAME = "g"
BURST = 4  # solve lines per burst
INTERVAL_S = 0.5  # between bursts: 8 requests/s offered
REPEAT_WINDOW = 64  # repeats come from this many recent distinct sets
N_REFERENCE = 20  # results checked against the Dijkstra reference
N_SETUP = 7  # cold starts behind setup_s
LAG_LIMIT_S = 0.005  # load-generator p95 lag above this voids a run
SPEED_PERIOD_S = 0.25  # between host-speed samples in a closed loop
SPEED_WINDOW_S = 1.0  # a request's speed factor: samples this close
REFERENCE_LOOP_S = 0.006  # the speed loop's time at reference host speed

# seed-set streams
SETUP, WARMUP, TIMED, REPEATS = range(4)

FAST = {"engine": "bsp-batched", "voronoi_backend": "delta-numpy"}


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # "rmat" | "grid"
    k: int
    smoke_k: int
    config: dict | None  # Session keywords; None: SolverService defaults
    warmup: int  # solves, or bursts when serving


WORKLOADS = {
    w.name: w
    for w in (
        Workload("session-rmat-k30", "rmat", 30, 30, FAST, 20),
        Workload("session-rmat-k2000", "rmat", 2000, 200, FAST, 5),
        Workload("simulated-rmat-k30", "rmat", 30, 30,
                 {"engine": "bsp-batched"}, 5),
        Workload("serve-grid-burst", "grid", 30, 10, None, 4),
    )
}


def build_graph(kind: str, smoke: bool) -> tuple[CSRGraph, str]:
    """The workload graph and a one-line description of it."""
    if kind == "rmat":
        scale = 10 if smoke else 14
        graph = assign_uniform_weights(rmat_graph(scale, 7, seed=1), (1, 100), seed=2)
        label = f"rmat({scale}, 7, seed=1), U[1,100] weights"
    else:
        rows, cols = (20, 25) if smoke else (200, 250)
        graph = grid_graph(rows, cols)
        label = f"grid {rows}x{cols}, unit weights"
    return graph, f"{label}: {graph.n_vertices} V / {graph.n_edges} E"


def copy_graph(graph: CSRGraph) -> CSRGraph:
    """A fresh graph object, so per-graph lazy caches start cold."""
    return CSRGraph(graph.indptr.copy(), graph.indices.copy(), graph.weights.copy())


def seed_sets(seed: int, pool: np.ndarray, k: int, stream: int) -> Iterator[np.ndarray]:
    """Endless distinct sorted seed sets of size ``k`` drawn from ``pool``."""
    rng = np.random.default_rng([seed, k, stream])
    seen: set[frozenset] = set()
    while True:
        seeds = np.sort(rng.choice(pool, size=k, replace=False))
        key = frozenset(seeds.tolist())
        if key not in seen:
            seen.add(key)
            yield seeds


def terminal_pool(graph: CSRGraph) -> np.ndarray:
    return largest_component_vertices(graph)


class HostSpeed:
    """How slow the host runs, over time, relative to a reference speed.

    On a shared virtual machine the same code runs up to 1.5x slower for
    seconds at a time, which swamps the differences the benchmark exists
    to show.  :meth:`sample` times a fixed NumPy and Python loop that
    uses no ``repro`` code; :meth:`factor` is the median of the samples
    within :data:`SPEED_WINDOW_S` of a moment, divided by the loop's
    time at reference speed.  A latency divided by the factor of its
    start time is the latency at reference speed.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).integers(0, 1 << 20, size=50_000)
        self.samples: list[tuple[float, float]] = []

    def _loop(self) -> float:
        t0 = time.perf_counter()
        np.unique(self._data)
        np.sort(self._data)
        table = {}
        for i in range(5000):
            table[i] = 2 * i
        return time.perf_counter() - t0

    def sample(self, after_idle: bool = False) -> None:
        """Record one timing.  The first loop after a sleep runs 15-30%
        slow (cold caches), so ``after_idle`` runs one unrecorded first."""
        if after_idle:
            self._loop()
        self.samples.append((time.perf_counter(), self._loop()))

    def factor(self, t: float) -> float:
        near = [d for at, d in self.samples if abs(at - t) <= SPEED_WINDOW_S]
        return statistics.median(near or [d for _, d in self.samples]) / REFERENCE_LOOP_S


# --------------------------------------------------------------------- #
# outcomes and correctness
# --------------------------------------------------------------------- #
class CorrectnessError(Exception):
    """An output failed validation or differs from the reference."""


@dataclass
class Outcome:
    """One answered request, from a result object or a response payload."""

    seeds: np.ndarray
    edges: np.ndarray | None  # dropped once validated, beyond the reference set
    total_distance: int
    phases: list[tuple]  # (name, n_messages, sim_time, n_visits | None)
    provenance: dict

    @classmethod
    def of_result(cls, result: Any) -> "Outcome":
        return cls(
            result.seeds, result.edges, int(result.total_distance),
            [(p.name, p.n_messages, p.sim_time, p.n_visits) for p in result.phases],
            dict(result.provenance),
        )

    @classmethod
    def of_payload(cls, payload: dict) -> "Outcome":
        return cls(
            np.asarray(payload["seeds"], dtype=np.int64),
            np.asarray(payload["edges"], dtype=np.int64).reshape(-1, 3),
            int(payload["total_distance"]),
            [(p["name"], p["n_messages"], p["sim_time_s"], None)
             for p in payload["phases"]],
            payload["provenance"],
        )

    def digest_record(self) -> list:
        # phase-1 sim_time holds host seconds unless the sweep was simulated
        simulated = self.provenance.get("sweep") == "simulated"
        return [
            self.seeds.tolist(), self.edges.tolist(), self.total_distance,
            [[name, int(msgs), sim if (i or simulated) else None]
             for i, (name, msgs, sim, _) in enumerate(self.phases)],
        ]


@dataclass
class Request:
    rid: str
    seeds: np.ndarray
    at: float = 0.0  # when its latency clock started
    latency_s: float | None = None  # None: failed or unanswered
    outcome: Outcome | None = None


def validate(graph: CSRGraph, req: Request) -> None:
    out = req.outcome
    if not np.array_equal(out.seeds, req.seeds):
        raise CorrectnessError(f"{req.rid}: answered seeds differ from the request")
    try:
        validate_steiner_tree(graph, req.seeds, out.edges)
    except ReproError as exc:
        raise CorrectnessError(f"{req.rid}: invalid tree: {exc}") from None


def reference_check(graph: CSRGraph, requests: Sequence[Request],
                    n: int) -> tuple[str, int]:
    """Compare the first ``n`` answered requests with the sequential
    Dijkstra reference.  Returns their digest and how many were compared."""
    first = [r for r in requests if r.outcome is not None][:n]
    for req in first:
        ref = sequential_steiner_tree(graph, req.seeds, voronoi_backend="dijkstra")
        if not (np.array_equal(ref.edges, req.outcome.edges)
                and ref.total_distance == req.outcome.total_distance):
            raise CorrectnessError(f"{req.rid}: tree differs from the Dijkstra reference")
    blob = json.dumps([r.outcome.digest_record() for r in first])
    return hashlib.sha256(blob.encode()).hexdigest(), len(first)


def check_same_trees(a: Sequence[Request], b: Sequence[Request]) -> None:
    """Traced and untraced runs of the same inputs give the same trees."""
    for x, y in zip(a, b):
        if x.outcome is None or y.outcome is None:
            continue
        if x.outcome.edges is None or y.outcome.edges is None:
            break
        if not np.array_equal(x.outcome.edges, y.outcome.edges):
            raise CorrectnessError(f"{y.rid}: tracing changed the tree")


def result_counts(requests: Sequence[Request]) -> dict[str, float]:
    """Exact per-layer counts read from the answered outcomes."""
    outs = [r.outcome for r in requests if r.outcome is not None]
    if not outs:
        return {}
    counts = {
        "runtime.voronoi_messages": statistics.median(o.phases[0][1] for o in outs),
        "runtime.tree_edge_messages": statistics.median(o.phases[5][1] for o in outs),
        "cache.hit_ratio": statistics.fmean(
            bool(o.provenance.get("cache_hit")) for o in outs),
        "service.coalesced_ratio": statistics.fmean(
            o.provenance.get("coalesced", 0) > 0 for o in outs),
    }
    if outs[0].phases[0][3] is not None:
        counts["runtime.voronoi_visits"] = statistics.median(
            o.phases[0][3] for o in outs)
    if "batch_size" in outs[0].provenance:
        counts["service.batch_size"] = statistics.median(
            o.provenance["batch_size"] for o in outs)
    return counts


# --------------------------------------------------------------------- #
# closed loop (Session)
# --------------------------------------------------------------------- #
def session_setup(graph: CSRGraph, config: dict, sets: Iterator[np.ndarray],
                  n: int) -> list[float]:
    """Seconds from graph in memory to first result, at reference host
    speed, for ``n`` cold starts."""
    speed, times = HostSpeed(), []
    for _ in range(n):
        g, seeds = copy_graph(graph), next(sets)
        speed.sample()
        t0 = time.perf_counter()
        session = Session(g, **config)
        session.solve(seeds)
        times.append((t0, time.perf_counter() - t0))
        session.close()
    speed.sample()
    return [dt / speed.factor(t0) for t0, dt in times]


def closed_loop(
    session: Session,
    graph: CSRGraph,
    sets: Iterator[np.ndarray],
    seconds: float,
    speed: HostSpeed,
    recorder: Any = None,
) -> list[Request]:
    """One client, next solve when the last returns.

    Each result is validated as soon as its clock stops; only the first
    :data:`N_REFERENCE` trees are kept (for the reference check), so the
    process's memory does not grow with the number of solves.
    """
    requests: list[Request] = []
    stop = time.perf_counter() + seconds
    next_sample = 0.0
    while time.perf_counter() < stop or len(requests) < N_REFERENCE:
        if time.perf_counter() >= next_sample:
            speed.sample()
            next_sample = time.perf_counter() + SPEED_PERIOD_S
        req = Request(f"r{len(requests)}", next(sets))
        span = recorder.open("request", (req.rid,)) if recorder else None
        req.at = time.perf_counter()
        try:
            result = session.solve(req.seeds)
        except ReproError:
            result = None
        finally:
            if span is not None:
                recorder.close(span)
        if result is not None:
            req.latency_s = time.perf_counter() - req.at
            req.outcome = Outcome.of_result(result)
            validate(graph, req)
            if len(requests) >= N_REFERENCE:
                req.outcome.edges = None
        requests.append(req)
    speed.sample()
    return requests


# --------------------------------------------------------------------- #
# open loop (SolverService behind TCP, in a child process)
# --------------------------------------------------------------------- #
def service_setup(graph: CSRGraph, sets: Iterator[np.ndarray], n: int) -> list[float]:
    """Seconds from graph in memory to first served result, at reference
    host speed, for ``n`` cold starts."""
    speed, times = HostSpeed(), []
    for _ in range(n):
        g, seeds = copy_graph(graph), next(sets)
        speed.sample()
        t0 = time.perf_counter()
        service = SolverService()
        service.add_graph(GRAPH_NAME, g)
        service.solve(GRAPH_NAME, seeds.tolist(), timeout=60)
        times.append((t0, time.perf_counter() - t0))
        service.close()
    speed.sample()
    return [dt / speed.factor(t0) for t0, dt in times]


def serve_schedule(seed: int, pool: np.ndarray, k: int, warm_bursts: int,
                   timed_bursts: int) -> list[list[Request]]:
    """Bursts of :data:`BURST` requests.  In every timed burst one request
    repeats a seed set from an earlier burst (not the one just before,
    so its answer is surely cached), the rest are fresh."""
    fresh = seed_sets(seed, pool, k, TIMED)
    rng = np.random.default_rng([seed, k, REPEATS])
    distinct: list[tuple[int, np.ndarray]] = []
    bursts = []
    for b in range(warm_bursts + timed_bursts):
        timed = b >= warm_bursts
        repeat_at = int(rng.integers(BURST)) if timed else -1
        burst = []
        for j in range(BURST):
            if j == repeat_at:
                earlier = [s for at, s in distinct if at <= b - 2][-REPEAT_WINDOW:]
                seeds = earlier[int(rng.integers(len(earlier)))]
            else:
                seeds = next(fresh)
                distinct.append((b, seeds))
            burst.append(Request(f"{'t' if timed else 'w'}{b}.{j}", seeds))
        bursts.append(burst)
    return bursts


@dataclass
class ServeRun:
    timed: list[Request]
    wall_s: float
    lag_p95_s: float
    speed: HostSpeed
    report: dict  # the server process's own report
    received: dict[str, float]  # rid -> client receipt time


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _drive(port: int, bursts: list[list[Request]], speed: HostSpeed,
           timeout_s: float) -> tuple[dict[str, float], dict[str, tuple[float, dict]]]:
    """Send each burst on schedule over one connection while a second
    thread reads responses.  Stamps each request's due time in ``at``;
    returns the send times and the responses by id."""
    lines = [
        b"".join(
            json.dumps({"id": r.rid, "op": "solve", "graph": GRAPH_NAME,
                        "seeds": r.seeds.tolist()}).encode() + b"\n"
            for r in burst
        )
        for burst in bursts
    ]
    n_expected = sum(len(b) for b in bursts)
    received: list[tuple[float, bytes]] = []
    all_in = threading.Event()
    sent: dict[str, float] = {}
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as sock:
        def read() -> None:
            try:
                with sock.makefile("rb") as rfile:
                    for line in rfile:
                        received.append((time.perf_counter(), line))
                        if len(received) == n_expected:
                            all_in.set()
            finally:
                all_in.set()  # EOF: nothing more will arrive

        reader = threading.Thread(target=read, name="e2e-reader", daemon=True)
        reader.start()
        t0 = time.perf_counter() + INTERVAL_S
        for b, burst in enumerate(bursts):
            due = t0 + b * INTERVAL_S
            # sample host speed while the server is idle, before the burst
            _sleep_until(due - 0.1)
            speed.sample(after_idle=True)
            speed.sample()
            _sleep_until(due)
            now = time.perf_counter()
            sock.sendall(lines[b])
            for r in burst:
                r.at, sent[r.rid] = due, now
        all_in.wait(timeout_s)
        sock.sendall(b'{"id": "shutdown", "op": "shutdown"}\n')
        reader.join(timeout_s)
    responses = {}
    for t, line in received:
        payload = json.loads(line)
        responses[str(payload.get("id"))] = (t, payload)
    return sent, responses


def run_serve(seed: int, seconds: float, smoke: bool, trace: bool) -> ServeRun:
    """One server process, warm-up bursts, then ``seconds`` of timed bursts.
    Results are validated here, after the server has exited."""
    wl = WORKLOADS["serve-grid-burst"]
    graph, _ = build_graph(wl.graph, smoke)
    k = wl.smoke_k if smoke else wl.k
    bursts = serve_schedule(seed, terminal_pool(graph), k, wl.warmup,
                            max(1, round(seconds / INTERVAL_S)))
    cmd = [sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed),
           "--trace", str(int(trace)), *(["--smoke"] if smoke else [])]
    speed = HostSpeed()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        if not ready:
            raise RuntimeError("server process exited before listening")
        sent, responses = _drive(json.loads(ready)["port"], bursts, speed, timeout_s=60)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"server process failed with exit code {proc.returncode}")
    report = json.loads(out.splitlines()[-1])

    timed = [r for burst in bursts[wl.warmup:] for r in burst]
    for req in timed:
        t, payload = responses.get(req.rid, (None, {}))
        if payload.get("ok"):
            req.latency_s = t - req.at
            req.outcome = Outcome.of_payload(payload["result"])
            validate(graph, req)
    done = [responses[r.rid][0] for r in timed if r.outcome is not None]
    wall = (max(done) if done else timed[-1].at) - timed[0].at
    lags = [sent[r.rid] - r.at for r in timed]
    received = {rid: t for rid, (t, _) in responses.items()}
    return ServeRun(timed, wall, float(np.percentile(lags, 95)), speed, report, received)
