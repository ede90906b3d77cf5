"""Unit tests for weight assignment, connectivity and graph IO."""

from __future__ import annotations

import numpy as np
import pytest

import networkx as nx

from repro.errors import GraphError
from repro.graph.connectivity import (
    bfs_levels,
    connected_components,
    is_connected,
    largest_component_vertices,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph, grid_graph
from repro.graph.io import (
    load_edge_list,
    load_npz,
    npz_nbytes,
    save_edge_list,
    save_npz,
)
from repro.graph.stats import graph_stats
from repro.graph.weights import WeightSpec, assign_uniform_weights


class TestWeights:
    def test_range_respected(self):
        g = assign_uniform_weights(grid_graph(10, 10), (3, 9), seed=0)
        assert g.weights.min() >= 3
        assert g.weights.max() <= 9

    def test_symmetric_weights(self):
        g = assign_uniform_weights(grid_graph(5, 5), (1, 100), seed=1)
        for u, v, w in g.iter_edges():
            assert g.edge_weight(v, u) == w

    def test_deterministic(self):
        a = assign_uniform_weights(grid_graph(5, 5), (1, 50), seed=3)
        b = assign_uniform_weights(grid_graph(5, 5), (1, 50), seed=3)
        assert a == b

    def test_seed_matters(self):
        a = assign_uniform_weights(grid_graph(5, 5), (1, 50), seed=3)
        b = assign_uniform_weights(grid_graph(5, 5), (1, 50), seed=4)
        assert a != b

    def test_spec_validation(self):
        with pytest.raises(GraphError):
            WeightSpec(0, 5)
        with pytest.raises(GraphError):
            WeightSpec(10, 5)

    def test_spec_label(self):
        assert WeightSpec(1, 5_000).label() == "[1, 5K]"
        assert WeightSpec(1, 500_000).label() == "[1, 500K]"
        assert WeightSpec(1, 2_000_000).label() == "[1, 2M]"
        assert WeightSpec(1, 123).label() == "[1, 123]"


class TestConnectivity:
    def test_bfs_levels_grid(self):
        g = grid_graph(4, 4)
        lv = bfs_levels(g, 0)
        # manhattan distance on a 4-connected grid
        for r in range(4):
            for c in range(4):
                assert lv[r * 4 + c] == r + c

    def test_bfs_levels_vs_networkx(self):
        g = erdos_renyi_graph(50, 120, seed=2)
        nxg = g.to_networkx()
        lv = bfs_levels(g, 0)
        nx_lv = nx.single_source_shortest_path_length(nxg, 0)
        for v in range(g.n_vertices):
            if v in nx_lv:
                assert lv[v] == nx_lv[v]
            else:
                assert lv[v] == -1

    def test_bfs_source_out_of_range(self):
        with pytest.raises(GraphError):
            bfs_levels(grid_graph(2, 2), 99)

    def test_connected_components_vs_networkx(self):
        g = erdos_renyi_graph(60, 50, seed=3)  # sparse -> multiple CCs
        labels = connected_components(g)
        nxg = g.to_networkx()
        for comp in nx.connected_components(nxg):
            comp = list(comp)
            assert len({int(labels[v]) for v in comp}) == 1

    def test_largest_component(self):
        g = erdos_renyi_graph(60, 50, seed=3)
        comp = largest_component_vertices(g)
        labels = connected_components(g)
        counts = np.bincount(labels)
        assert comp.size == counts.max()

    def test_is_connected(self):
        assert is_connected(grid_graph(3, 3))
        two = CSRGraph.from_edges(4, [(0, 1), (2, 3)], [1, 1])
        assert not is_connected(two)

    def test_trivial_graphs_connected(self):
        assert is_connected(CSRGraph.from_edges(1, np.zeros((0, 2), np.int64), []))
        assert is_connected(CSRGraph.from_edges(0, np.zeros((0, 2), np.int64), []))


class TestIO:
    def test_edge_list_round_trip(self, tmp_path, weighted_grid):
        path = tmp_path / "g.txt"
        save_edge_list(weighted_grid, path)
        back = load_edge_list(path)
        assert back == weighted_grid

    def test_edge_list_without_weights(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.n_edges == 2
        assert g.edge_weight(0, 1) == 1

    def test_edge_list_malformed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3 4\n")
        with pytest.raises(GraphError, match="malformed"):
            load_edge_list(path)

    def test_edge_list_empty(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# n_vertices=5\n")
        g = load_edge_list(path)
        assert g.n_vertices == 5
        assert g.n_edges == 0

    def test_npz_round_trip(self, tmp_path, weighted_grid):
        path = tmp_path / "g.npz"
        save_npz(weighted_grid, path)
        assert load_npz(path) == weighted_grid

    def test_npz_nbytes(self, weighted_grid):
        n = npz_nbytes(weighted_grid)
        assert n >= weighted_grid.nbytes()  # container overhead included


class TestStats:
    def test_graph_stats(self, weighted_grid):
        st = graph_stats(weighted_grid)
        assert st.n_vertices == 64
        assert st.n_arcs == weighted_grid.n_arcs
        assert st.weight_min >= 1
        assert st.weight_max <= 9
        row = st.as_row()
        assert row["|V|"] == 64

    def test_stats_empty(self):
        g = CSRGraph.from_edges(2, np.zeros((0, 2), np.int64), [])
        st = graph_stats(g)
        assert st.weight_min == 0 and st.weight_max == 0
