"""Unit tests for the CSR graph substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def tiny() -> CSRGraph:
    # triangle 0-1-2 plus pendant 3
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    return CSRGraph.from_edges(4, edges, [5, 7, 2, 9])


class TestConstruction:
    def test_counts(self):
        g = tiny()
        assert g.n_vertices == 4
        assert g.n_edges == 4
        assert g.n_arcs == 8

    def test_symmetric_storage(self):
        g = tiny()
        # both directions present, same weight
        assert g.edge_weight(0, 1) == 5
        assert g.edge_weight(1, 0) == 5

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, np.zeros((0, 2), dtype=np.int64), [])
        assert g.n_vertices == 3
        assert g.n_edges == 0
        assert g.degree(0) == 0

    def test_zero_vertex_graph(self):
        g = CSRGraph.from_edges(0, np.zeros((0, 2), dtype=np.int64), [])
        assert g.n_vertices == 0
        assert g.max_degree == 0
        assert g.avg_degree == 0.0

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)], [3, 4])
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == 4

    def test_self_loops_kept_raises_nothing_by_default(self):
        # drop_self_loops=False keeps the loop as an arc pair
        g = CSRGraph.from_edges(2, [(0, 0), (0, 1)], [3, 4], drop_self_loops=False)
        assert g.n_arcs == 4

    def test_duplicate_edges_min_weight(self):
        g = CSRGraph.from_edges(2, [(0, 1), (1, 0), (0, 1)], [9, 3, 5])
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == 3

    def test_duplicate_edges_error_policy(self):
        with pytest.raises(GraphError, match="duplicate"):
            CSRGraph.from_edges(2, [(0, 1), (0, 1)], [1, 2], dedupe="error")

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphError, match="out of range"):
            CSRGraph.from_edges(2, [(0, 5)], [1])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            CSRGraph.from_edges(2, [(0, 1)], [-1])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            CSRGraph.from_edges(2, [(0, 1)], [0])

    def test_weight_length_mismatch(self):
        with pytest.raises(GraphError, match="weights length"):
            CSRGraph.from_edges(2, [(0, 1)], [1, 2])

    def test_bad_indptr(self):
        with pytest.raises(GraphError):
            CSRGraph(np.asarray([0, 5]), np.asarray([1]), np.asarray([1]))


class TestQueries:
    def test_degree_vector(self):
        g = tiny()
        assert list(g.degree()) == [2, 2, 3, 1]
        assert g.degree(2) == 3
        assert g.max_degree == 3
        assert g.avg_degree == pytest.approx(2.0)

    def test_neighbors_sorted(self):
        g = tiny()
        assert list(g.neighbors(2)) == [0, 1, 3]

    def test_neighbor_weights_aligned(self):
        g = tiny()
        nbrs = list(g.neighbors(2))
        ws = list(g.neighbor_weights(2))
        assert dict(zip(nbrs, ws)) == {0: 2, 1: 7, 3: 9}

    def test_has_edge(self):
        g = tiny()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 3)

    def test_edge_weight_missing_raises(self):
        with pytest.raises(GraphError, match="no edge"):
            tiny().edge_weight(1, 3)

    def test_edge_array_unique_undirected(self):
        g = tiny()
        src, dst, w = g.edge_array()
        assert src.size == g.n_edges
        assert (src < dst).all()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert pairs == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_iter_edges_matches_edge_array(self):
        g = tiny()
        src, dst, w = g.edge_array()
        assert list(g.iter_edges()) == list(
            zip(src.tolist(), dst.tolist(), w.tolist())
        )

    def test_total_weight(self):
        assert tiny().total_weight() == 5 + 7 + 2 + 9

    def test_distance_bound_is_exact_past_int64(self):
        assert tiny().distance_bound() == 5 + 7 + 2 + 9 + 9
        g = CSRGraph.from_edges(4, [[0, 1], [1, 2], [2, 3]], [2**62] * 3)
        assert g.total_weight() == 3 * 2**62
        assert g.distance_bound() == 4 * 2**62

    def test_nbytes_positive(self):
        assert tiny().nbytes() > 0


class TestDerived:
    def test_reweighted_same_topology(self):
        g = tiny()
        g2 = g.reweighted(np.full(g.n_arcs, 3, dtype=np.int64))
        assert g2.n_edges == g.n_edges
        assert g2.edge_weight(0, 1) == 3

    def test_reweighted_shape_mismatch(self):
        with pytest.raises(GraphError, match="shape"):
            tiny().reweighted(np.ones(3, dtype=np.int64))

    def test_reweighted_rejects_nonpositive(self):
        g = tiny()
        with pytest.raises(GraphError, match="positive"):
            g.reweighted(np.zeros(g.n_arcs, dtype=np.int64))

    def test_induced_subgraph(self):
        g = tiny()
        sub, mapping = g.induced_subgraph([0, 1, 2])
        assert sub.n_vertices == 3
        assert sub.n_edges == 3  # the triangle
        assert list(mapping) == [0, 1, 2]

    def test_induced_subgraph_relabels(self):
        g = tiny()
        sub, mapping = g.induced_subgraph([2, 3])
        assert sub.n_vertices == 2
        assert sub.n_edges == 1
        assert sub.edge_weight(0, 1) == 9
        assert list(mapping) == [2, 3]

    def test_induced_subgraph_out_of_range(self):
        with pytest.raises(GraphError):
            tiny().induced_subgraph([99])

    def test_networkx_round_trip(self):
        g = tiny()
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 4
        back = CSRGraph.from_networkx(nxg)
        assert back == g

    def test_equality(self):
        assert tiny() == tiny()
        other = CSRGraph.from_edges(4, [(0, 1)], [5])
        assert tiny() != other
        assert tiny() != "not a graph"
