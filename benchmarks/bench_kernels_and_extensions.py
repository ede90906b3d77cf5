"""Benches for the kernel ablation, chunked collectives, message
aggregation, and the near-shortest-path exploration primitive."""

from __future__ import annotations

import pytest

from repro.core.config import SolverConfig
from repro.core.solver import DistributedSteinerSolver
from repro.harness.datasets import load_dataset
from repro.seeds.selection import select_seeds
from repro.shortest_paths.backends import available_backends, get_backend
from repro.shortest_paths.multisource import (
    compute_voronoi_cells_delta_stepping,
    compute_voronoi_cells_spfa,
)
from repro.shortest_paths.near_shortest import near_shortest_path_edges
from repro.shortest_paths.voronoi import compute_voronoi_cells

K = 30

KERNELS = {
    "dijkstra-order": compute_voronoi_cells,
    "spfa": compute_voronoi_cells_spfa,
    "delta-stepping": compute_voronoi_cells_delta_stepping,
}


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_multisource_kernels(benchmark, seeds_cache, kernel):
    """§III's kernel comparison: Dijkstra-order vs SPFA vs Δ-stepping."""
    graph = load_dataset("LVJ")
    seeds = seeds_cache("LVJ", K)
    benchmark.group = "ablation kernels LVJ |S|=30"
    benchmark.extra_info["kernel"] = kernel
    benchmark.pedantic(KERNELS[kernel], args=(graph, seeds), rounds=2, iterations=1)


@pytest.mark.parametrize("chunk", [None, 500, 50])
def test_chunked_collectives(benchmark, seeds_cache, chunk):
    """§V-F: chunked EN collectives trade runtime for bounded buffers."""
    graph = load_dataset("LVJ")
    seeds = seeds_cache("LVJ", 100)
    solver = DistributedSteinerSolver(
        graph, SolverConfig(n_ranks=16, collective_chunk_elements=chunk)
    )
    result = benchmark.pedantic(solver.solve, args=(seeds,), rounds=1, iterations=1)
    benchmark.group = "ablation chunked collectives LVJ |S|=100"
    benchmark.extra_info["chunk"] = chunk or "single-shot"
    benchmark.extra_info["collective_sim_time_s"] = result.phase_time(
        "Global Min Dist. Edge"
    ) + result.phase_time("Global Edge Pruning")
    benchmark.extra_info["en_buffer_bytes"] = result.memory.en_buffer_bytes


@pytest.mark.parametrize("aggregate", [False, True])
def test_message_aggregation(benchmark, seeds_cache, aggregate):
    """HavoqGT-style per-destination message batching."""
    graph = load_dataset("WDC")
    seeds = seeds_cache("WDC", K)
    solver = DistributedSteinerSolver(
        graph, SolverConfig(n_ranks=16, aggregate_remote_messages=aggregate)
    )
    result = benchmark.pedantic(solver.solve, args=(seeds,), rounds=1, iterations=1)
    benchmark.group = "ablation aggregation WDC |S|=30"
    benchmark.extra_info["aggregate"] = aggregate
    benchmark.extra_info["sim_time_s"] = result.sim_time()


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
def test_near_shortest_exploration(benchmark, epsilon):
    """|S|=2 exploration primitive from the paper's introduction."""
    graph = load_dataset("LVJ")
    seeds = select_seeds(graph, 2, "eccentric", seed=4)
    s, t = int(seeds[0]), int(seeds[1])
    result = benchmark.pedantic(
        near_shortest_path_edges, args=(graph, s, t, epsilon),
        rounds=3, iterations=1,
    )
    benchmark.group = "near-shortest |S|=2 LVJ"
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["n_edges"] = result.n_edges


@pytest.mark.parametrize("backend", available_backends())
def test_voronoi_backends(benchmark, seeds_cache, backend):
    """The registered sweep backends: the pure-Python ``dijkstra``
    reference vs the vectorised ``delta-numpy`` (bit-identical output;
    the speedup grows with graph size)."""
    graph = load_dataset("WDC")
    seeds = seeds_cache("WDC", K)
    benchmark.group = "voronoi backend WDC |S|=30"
    benchmark.extra_info["backend"] = backend
    benchmark.pedantic(get_backend(backend), args=(graph, seeds), rounds=2, iterations=1)
