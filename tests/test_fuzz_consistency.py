"""Fuzz-style cross-configuration consistency: on a battery of random
graphs, every solver configuration must produce the identical tree, and
the tree must satisfy the approximation bound wherever the exact answer
is computable.

This is the heavyweight end of the agreement testing pyramid — the
cheap per-feature checks live in test_solver.py; here the configuration
*matrix* is exercised jointly on skewed and tie-heavy inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_steiner_tree
from repro.core.config import SolverConfig
from repro.core.sequential import sequential_steiner_tree
from repro.core.solver import DistributedSteinerSolver
from repro.graph.connectivity import largest_component_vertices
from repro.graph.generators import rmat_graph
from repro.graph.weights import assign_uniform_weights
from repro.validation import validate_steiner_tree
from tests.conftest import component_seeds, make_connected_graph

CONFIG_MATRIX = [
    SolverConfig(n_ranks=1),
    SolverConfig(n_ranks=6, discipline="fifo"),
    SolverConfig(n_ranks=6, discipline="priority"),
    SolverConfig(n_ranks=6, engine="bsp-batched"),
    SolverConfig(n_ranks=6, delegate_threshold=6),
    SolverConfig(n_ranks=6, engine="bsp"),
    SolverConfig(n_ranks=6, aggregate_remote_messages=True),
    SolverConfig(n_ranks=6, collective_chunk_elements=3),
    SolverConfig(n_ranks=6, engine="bsp", delegate_threshold=5),
    SolverConfig(
        n_ranks=11,
        discipline="fifo",
        delegate_threshold=5,
        aggregate_remote_messages=True,
    ),
]


@pytest.mark.parametrize("trial", range(6))
def test_configuration_matrix_agreement(trial):
    """All nine configurations produce the bit-identical tree."""
    g = make_connected_graph(
        45, 130, weight_high=7 if trial % 2 else 40, seed=trial + 1000
    )
    seeds = component_seeds(g, 4 + trial % 4, seed=trial)
    reference = sequential_steiner_tree(g, seeds)
    validate_steiner_tree(g, seeds, reference.edges)
    for cfg in CONFIG_MATRIX:
        res = DistributedSteinerSolver(g, cfg).solve(seeds)
        assert np.array_equal(res.edges, reference.edges), cfg


@pytest.mark.parametrize("trial", range(3))
def test_skewed_graph_agreement(trial):
    """RMAT hubs + tie-heavy small weights stress delegates and order."""
    g = rmat_graph(7, 6, seed=trial + 50)
    g = assign_uniform_weights(g, (1, 3), seed=trial + 51)
    comp = largest_component_vertices(g)
    rng = np.random.default_rng(trial)
    seeds = np.sort(rng.choice(comp, size=6, replace=False))
    reference = sequential_steiner_tree(g, seeds)
    for cfg in CONFIG_MATRIX[:6]:
        res = DistributedSteinerSolver(g, cfg).solve(seeds)
        assert np.array_equal(res.edges, reference.edges), cfg


@pytest.mark.parametrize("trial", range(4))
def test_bound_versus_exact(trial):
    g = make_connected_graph(28, 70, seed=trial + 2000)
    seeds = component_seeds(g, 5, seed=trial)
    opt = exact_steiner_tree(g, seeds)
    for cfg in (CONFIG_MATRIX[0], CONFIG_MATRIX[2], CONFIG_MATRIX[5]):
        res = DistributedSteinerSolver(g, cfg).solve(seeds)
        assert opt.total_distance <= res.total_distance <= 2 * opt.total_distance


def test_seed_order_irrelevant(random_graph):
    """Permuting the input seed order must not change anything."""
    seeds = component_seeds(random_graph, 6, seed=3)
    shuffled = seeds[::-1]
    a = sequential_steiner_tree(random_graph, seeds)
    b = sequential_steiner_tree(random_graph, shuffled)
    assert np.array_equal(a.edges, b.edges)


def test_vertex_relabelling_preserves_weight():
    """Solving on a relabelled copy gives a tree of identical weight."""
    g = make_connected_graph(40, 110, seed=3000)
    seeds = component_seeds(g, 5, seed=30)
    base = sequential_steiner_tree(g, seeds)

    rng = np.random.default_rng(9)
    perm = rng.permutation(g.n_vertices)
    src, dst, w = g.edge_array()
    import numpy as _np

    from repro.graph.csr import CSRGraph

    g2 = CSRGraph.from_edges(
        g.n_vertices, _np.stack([perm[src], perm[dst]], axis=1), w
    )
    res = sequential_steiner_tree(g2, perm[seeds])
    assert res.total_distance == base.total_distance
