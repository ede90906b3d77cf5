"""Tests for the validation module itself (it must catch every defect
class it claims to)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.sequential import sequential_steiner_tree
from repro.errors import ValidationError
from repro.graph.connectivity import connected_components
from repro.graph.csr import CSRGraph
from repro.shortest_paths.backends import BACKENDS
from repro.shortest_paths.voronoi import INF, NO_VERTEX, compute_voronoi_cells
from repro.validation import (
    approximation_error_pct,
    approximation_ratio,
    validate_steiner_tree,
    validate_voronoi_diagram,
)
from tests.conftest import component_seeds, tie_heavy_graph_and_seeds


def path_graph(n=5, w=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    return CSRGraph.from_edges(n, edges, [w] * (n - 1))


class TestValidateSteinerTree:
    def test_accepts_valid_tree(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=1)
        res = sequential_steiner_tree(random_graph, seeds)
        validate_steiner_tree(random_graph, seeds, res.edges)  # no raise

    def test_single_seed_trivial(self, random_graph):
        validate_steiner_tree(
            random_graph, [0], np.zeros((0, 3), dtype=np.int64)
        )

    def test_rejects_empty_seed_set(self, random_graph):
        with pytest.raises(ValidationError, match="empty"):
            validate_steiner_tree(random_graph, [], np.zeros((0, 3), np.int64))

    def test_rejects_nonexistent_edge(self):
        g = path_graph()
        edges = np.asarray([[0, 4, 2]], dtype=np.int64)  # not an edge
        with pytest.raises(ValidationError, match="not in the graph"):
            validate_steiner_tree(g, [0, 4], edges)

    def test_rejects_wrong_weight(self):
        g = path_graph()
        edges = np.asarray(
            [[0, 1, 99], [1, 2, 2], [2, 3, 2], [3, 4, 2]], dtype=np.int64
        )
        with pytest.raises(ValidationError, match="weight"):
            validate_steiner_tree(g, [0, 4], edges)

    def test_rejects_cycle(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])
        edges = np.asarray([[0, 1, 1], [1, 2, 1], [0, 2, 1]], dtype=np.int64)
        with pytest.raises(ValidationError, match="cycle"):
            validate_steiner_tree(g, [0, 1, 2], edges)

    def test_rejects_disconnected_seeds(self):
        g = path_graph()
        edges = np.asarray([[0, 1, 2]], dtype=np.int64)
        with pytest.raises(ValidationError, match="not connected"):
            validate_steiner_tree(g, [0, 4], edges)

    def test_rejects_stray_component(self):
        g = path_graph(6)
        # tree connecting 0-1 (the seeds), plus stray edge 3-4
        edges = np.asarray([[0, 1, 2], [3, 4, 2]], dtype=np.int64)
        with pytest.raises(ValidationError, match="disconnected|not a tree"):
            validate_steiner_tree(g, [0, 1], edges)

    def test_rejects_steiner_leaf(self):
        g = path_graph(4)
        # seeds 0,2 but tree extends to 3 -> 3 is a Steiner leaf
        edges = np.asarray([[0, 1, 2], [1, 2, 2], [2, 3, 2]], dtype=np.int64)
        with pytest.raises(ValidationError, match="leaf"):
            validate_steiner_tree(g, [0, 2], edges)
        # allowed when the check is disabled
        validate_steiner_tree(g, [0, 2], edges, require_seed_leaves=False)

    def test_rejects_out_of_range_endpoint(self):
        g = path_graph()
        edges = np.asarray([[0, 99, 2]], dtype=np.int64)
        with pytest.raises(ValidationError, match="out of range"):
            validate_steiner_tree(g, [0, 4], edges)


class TestValidateVoronoiDiagram:
    def test_accepts_valid(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=2)
        vd = compute_voronoi_cells(random_graph, seeds)
        validate_voronoi_diagram(random_graph, vd)

    def test_rejects_corrupted_distance(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=2)
        vd = compute_voronoi_cells(random_graph, seeds)
        victim = int(np.nonzero((vd.dist > 0) & (vd.dist != INF))[0][0])
        vd.dist[victim] += 5
        with pytest.raises(ValidationError):
            validate_voronoi_diagram(random_graph, vd)

    def test_rejects_corrupted_seed_state(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=3)
        vd = compute_voronoi_cells(random_graph, seeds)
        vd.dist[int(seeds[0])] = 1
        with pytest.raises(ValidationError, match="seed"):
            validate_voronoi_diagram(random_graph, vd)

    def test_rejects_cross_cell_pred(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=4)
        vd = compute_voronoi_cells(random_graph, seeds)
        # move a non-seed vertex into another cell without fixing pred
        non_seeds = [
            v
            for v in range(random_graph.n_vertices)
            if vd.src[v] != NO_VERTEX and vd.src[v] != v
        ]
        victim = non_seeds[0]
        other = next(s for s in seeds if int(s) != int(vd.src[victim]))
        vd.src[victim] = other
        with pytest.raises(ValidationError):
            validate_voronoi_diagram(random_graph, vd)


def parallel_edge_graph():
    """Two parallel ``(0, 1)`` edges of weight 5 and 2, then ``(1, 2)``."""
    return CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)], [5, 2, 1], dedupe="keep")


class TestMultigraph:
    """On a graph that keeps parallel edges a tree row or a predecessor
    hop may use any of them, not only the first one stored."""

    def test_accepts_the_solver_tree(self):
        g = parallel_edge_graph()
        res = sequential_steiner_tree(g, [0, 2])
        assert res.edges.tolist() == [[0, 1, 2], [1, 2, 1]]
        validate_steiner_tree(g, [0, 2], res.edges)

    def test_rejects_a_weight_no_parallel_edge_carries(self):
        edges = np.asarray([[0, 1, 3], [1, 2, 1]], dtype=np.int64)
        with pytest.raises(ValidationError, match="carries weight 3"):
            validate_steiner_tree(parallel_edge_graph(), [0, 2], edges)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_accepts_the_diagram(self, backend):
        g = parallel_edge_graph()
        vd = BACKENDS[backend](g, [0])
        assert vd.dist.tolist() == [0, 2, 3]
        validate_voronoi_diagram(g, vd)

    def test_rejects_a_predecessor_that_is_not_a_neighbour(self):
        g = parallel_edge_graph()
        vd = compute_voronoi_cells(g, [0])
        vd.pred[2] = 0
        with pytest.raises(ValidationError, match="not a neighbour"):
            validate_voronoi_diagram(g, vd)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(tie_heavy_graph_and_seeds(keep_parallel=True))
    def test_accepts_solver_output_on_tie_heavy_multigraphs(self, case):
        g, seeds = case
        validate_voronoi_diagram(g, BACKENDS["delta-numpy"](g, seeds))
        label = connected_components(g)
        seeds = [s for s in seeds if label[s] == label[seeds[0]]]
        res = sequential_steiner_tree(g, seeds)
        validate_steiner_tree(g, seeds, res.edges)


class TestRatioHelpers:
    def test_ratio(self):
        assert approximation_ratio(110, 100) == pytest.approx(1.1)

    def test_error_pct(self):
        assert approximation_error_pct(110, 100) == pytest.approx(10.0)

    def test_zero_optimum_rejected(self):
        with pytest.raises(ValidationError):
            approximation_ratio(5, 0)
