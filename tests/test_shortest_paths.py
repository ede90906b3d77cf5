"""Unit tests for shortest-path kernels: Dijkstra, APSP-among-seeds and,
from one seed, the SPFA and Δ-stepping Voronoi kernels — all
cross-checked against networkx and each other."""

from __future__ import annotations

import numpy as np
import pytest

import networkx as nx

from repro.errors import GraphError, SeedError
from repro.shortest_paths.apsp import seed_pairs_apsp
from repro.shortest_paths.dijkstra import (
    INF,
    dijkstra,
    dijkstra_to_targets,
    reconstruct_path,
)
from repro.shortest_paths.multisource import (
    compute_voronoi_cells_delta_stepping,
    compute_voronoi_cells_spfa,
)
from tests.conftest import component_seeds, make_connected_graph


def nx_distances(graph, source):
    return nx.single_source_dijkstra_path_length(
        graph.to_networkx(), source, weight="weight"
    )


class TestDijkstra:
    def test_vs_networkx(self, random_graph):
        dist, _ = dijkstra(random_graph, 0)
        expected = nx_distances(random_graph, 0)
        for v in range(random_graph.n_vertices):
            if v in expected:
                assert dist[v] == expected[v]
            else:
                assert dist[v] == INF

    def test_pred_gives_tight_paths(self, random_graph):
        dist, pred = dijkstra(random_graph, 0)
        for v in range(random_graph.n_vertices):
            if v == 0 or dist[v] == INF:
                continue
            p = int(pred[v])
            assert dist[p] + random_graph.edge_weight(p, v) == dist[v]

    def test_reconstruct_path(self, weighted_grid):
        dist, pred = dijkstra(weighted_grid, 0)
        path = reconstruct_path(pred, 0, 63)
        assert path[0] == 0 and path[-1] == 63
        total = sum(
            weighted_grid.edge_weight(path[i], path[i + 1])
            for i in range(len(path) - 1)
        )
        assert total == dist[63]

    def test_reconstruct_no_path(self):
        pred = np.asarray([-1, -1], dtype=np.int64)
        with pytest.raises(GraphError, match="no path"):
            reconstruct_path(pred, 0, 1)

    def test_source_out_of_range(self, small_grid):
        with pytest.raises(GraphError):
            dijkstra(small_grid, 999)

    def test_unreachable_vertices(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)], [1, 1])
        dist, pred = dijkstra(g, 0)
        assert dist[2] == INF and dist[3] == INF
        assert pred[2] == -1


class TestDijkstraToTargets:
    def test_targets_settled(self, random_graph):
        targets = [5, 10, 15]
        dist, _ = dijkstra_to_targets(random_graph, 0, targets)
        full, _ = dijkstra(random_graph, 0)
        for t in targets:
            assert dist[t] == full[t]

    def test_target_out_of_range(self, small_grid):
        with pytest.raises(GraphError):
            dijkstra_to_targets(small_grid, 0, [999])

    @pytest.mark.parametrize("source", [-1, 36])
    def test_source_out_of_range(self, small_grid, source):
        with pytest.raises(GraphError, match="source"):
            dijkstra_to_targets(small_grid, source, [3])


class TestAlternativeKernels:
    """Run from one seed, the SPFA and Δ-stepping Voronoi kernels are
    independent single-source oracles for :func:`dijkstra`."""

    @pytest.mark.parametrize("seed", range(5))
    def test_spfa_equals_dijkstra(self, seed):
        g = make_connected_graph(35, 90, seed=seed)
        d1, _ = dijkstra(g, 0)
        assert np.array_equal(compute_voronoi_cells_spfa(g, [0]).dist, d1)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("delta", [1, 3, 10, None])
    def test_delta_stepping_equals_dijkstra(self, seed, delta):
        g = make_connected_graph(30, 80, seed=seed + 50)
        d1, _ = dijkstra(g, 0)
        vd = compute_voronoi_cells_delta_stepping(g, [0], delta)
        assert np.array_equal(vd.dist, d1)

    def test_spfa_pred_tight(self, random_graph):
        vd = compute_voronoi_cells_spfa(random_graph, [0])
        dist, pred = vd.dist, vd.pred
        for v in range(random_graph.n_vertices):
            if v == 0 or dist[v] == INF:
                continue
            p = int(pred[v])
            assert dist[p] + random_graph.edge_weight(p, v) == dist[v]

    def test_delta_stepping_bad_delta(self, small_grid):
        with pytest.raises(GraphError):
            compute_voronoi_cells_delta_stepping(small_grid, [0], 0)

    def test_spfa_source_out_of_range(self, small_grid):
        with pytest.raises(SeedError):
            compute_voronoi_cells_spfa(small_grid, [-1])


class TestAPSP:
    def test_vs_pairwise_networkx(self, random_graph):
        seeds = component_seeds(random_graph, 5, seed=1)
        mat = seed_pairs_apsp(random_graph, seeds)
        nxg = random_graph.to_networkx()
        for i, s in enumerate(seeds):
            for j, t in enumerate(seeds):
                if i == j:
                    assert mat[i, j] == 0
                else:
                    assert mat[i, j] == nx.dijkstra_path_length(
                        nxg, int(s), int(t), weight="weight"
                    )

    def test_symmetry(self, random_graph):
        seeds = component_seeds(random_graph, 6, seed=2)
        mat = seed_pairs_apsp(random_graph, seeds)
        assert np.array_equal(mat, mat.T)

    def test_early_exit_equivalent(self, random_graph):
        seeds = component_seeds(random_graph, 5, seed=3)
        a = seed_pairs_apsp(random_graph, seeds, early_exit=True)
        b = seed_pairs_apsp(random_graph, seeds, early_exit=False)
        assert np.array_equal(a, b)

    def test_duplicate_seeds_rejected(self, small_grid):
        with pytest.raises(SeedError):
            seed_pairs_apsp(small_grid, [0, 0, 1])

    def test_empty_seeds_rejected(self, small_grid):
        with pytest.raises(SeedError):
            seed_pairs_apsp(small_grid, [])
