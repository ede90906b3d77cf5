"""Solver behaviour on special topologies — the degenerate shapes where
tie-breaking, pruning and walk logic are most stressed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_steiner_tree
from repro.core.config import SolverConfig
from repro.core.sequential import sequential_steiner_tree
from repro.api import solve
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph
from repro.validation import validate_steiner_tree


def solve_both(graph, seeds):
    ref = sequential_steiner_tree(graph, seeds)
    res = solve(graph, seeds, config=SolverConfig(n_ranks=3))
    assert np.array_equal(ref.edges, res.edges)
    validate_steiner_tree(graph, seeds, ref.edges)
    return ref


class TestPathGraph:
    def test_endpoints(self):
        n = 12
        g = CSRGraph.from_edges(
            n, [(i, i + 1) for i in range(n - 1)], list(range(1, n))
        )
        res = solve_both(g, [0, n - 1])
        # the only tree is the whole path
        assert res.n_edges == n - 1
        assert res.total_distance == sum(range(1, n))

    def test_interior_seeds_trim_the_path(self):
        n = 12
        g = CSRGraph.from_edges(
            n, [(i, i + 1) for i in range(n - 1)], [2] * (n - 1)
        )
        res = solve_both(g, [3, 5, 8])
        # tree spans exactly vertices 3..8
        assert set(res.vertices().tolist()) == set(range(3, 9))
        assert res.total_distance == 2 * 5


class TestStarGraph:
    def test_leaves_as_seeds(self):
        # hub 0, leaves 1..8
        g = CSRGraph.from_edges(9, [(0, i) for i in range(1, 9)], [3] * 8)
        seeds = [1, 4, 7]
        res = solve_both(g, seeds)
        # optimal: hub + the three spokes
        assert res.total_distance == 9
        assert set(res.steiner_vertices().tolist()) == {0}

    def test_hub_as_seed(self):
        g = CSRGraph.from_edges(5, [(0, i) for i in range(1, 5)], [1] * 4)
        res = solve_both(g, [0, 2])
        assert res.total_distance == 1
        assert res.n_edges == 1


class TestCompleteGraph:
    def test_uniform_weights(self):
        n = 8
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = CSRGraph.from_edges(n, edges, [5] * len(edges))
        seeds = [0, 3, 6]
        res = solve_both(g, seeds)
        # any pair of direct edges is optimal: weight 10, no Steiner vertex
        assert res.total_distance == 10
        assert res.steiner_vertices().size == 0

    def test_matches_exact(self):
        n = 7
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [((i * 7 + j * 3) % 9) + 1 for i, j in edges]
        g = CSRGraph.from_edges(n, edges, weights)
        seeds = [0, 2, 5]
        res = solve_both(g, seeds)
        opt = exact_steiner_tree(g, seeds)
        assert res.total_distance <= 2 * opt.total_distance


class TestTies:
    def test_all_unit_weights_grid(self):
        g = grid_graph(9, 9)
        seeds = [0, 8, 72, 80]
        res = solve_both(g, seeds)
        # manhattan lower bound: connecting 4 corners of an 8x8 span
        assert res.total_distance >= 24

    def test_parallel_shortest_paths(self):
        # diamond: two equal-cost routes between seeds; tie-break must
        # pick exactly one deterministically
        g = CSRGraph.from_edges(
            4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1, 1, 1, 1]
        )
        res = solve_both(g, [0, 3])
        assert res.total_distance == 2
        assert res.n_edges == 2

    def test_equidistant_seed_claims(self):
        # vertex 1 is equidistant from seeds 0 and 2: must join cell of
        # the smaller seed id (0) in every implementation
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], [4, 4])
        ref = sequential_steiner_tree(g, [0, 2])
        assert ref.diagram.src[1] == 0


class TestTwoCells:
    def test_single_bridge(self):
        # two triangles joined by one bridge edge
        g = CSRGraph.from_edges(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            [2, 2, 2, 2, 2, 2, 10],
        )
        res = solve_both(g, [0, 5])
        # forced through the bridge
        assert any((u, v) == (2, 3) for u, v, _ in res.edges)

    def test_multiple_equal_bridges(self):
        # two bridges with identical total distance: deterministic pick
        g = CSRGraph.from_edges(
            4, [(0, 1), (0, 2), (1, 3), (2, 3)], [1, 1, 5, 5]
        )
        a = solve_both(g, [0, 3])
        b = solve_both(g, [0, 3])
        assert np.array_equal(a.edges, b.edges)


class TestSelfConsistency:
    @pytest.mark.parametrize("n_ranks", [1, 2, 5, 16, 33])
    def test_rank_counts_beyond_vertices(self, n_ranks):
        g = grid_graph(4, 4)
        res = solve(
            g, [0, 15], config=SolverConfig(n_ranks=n_ranks)
        )
        ref = sequential_steiner_tree(g, [0, 15])
        assert res.total_distance == ref.total_distance
