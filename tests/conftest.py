"""Shared fixtures and graph factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.connectivity import largest_component_vertices
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    grid_graph,
    preferential_attachment_graph,
    rmat_graph,
)
from repro.graph.weights import assign_uniform_weights


def make_connected_graph(
    n: int = 40,
    m: int = 100,
    *,
    weight_high: int = 20,
    seed: int = 0,
) -> CSRGraph:
    """A connected weighted random graph: ER topology restricted to its
    largest component (relabelled), plus uniform integer weights."""
    g = erdos_renyi_graph(n, m, seed=seed)
    comp = largest_component_vertices(g)
    sub, _ = g.induced_subgraph(comp)
    return assign_uniform_weights(sub, (1, weight_high), seed=seed + 1)


def component_seeds(graph: CSRGraph, k: int, *, seed: int = 0) -> np.ndarray:
    """k distinct seeds from the largest component."""
    comp = largest_component_vertices(graph)
    rng = np.random.default_rng(seed)
    k = min(k, comp.size)
    return np.sort(rng.choice(comp, size=k, replace=False)).astype(np.int64)


def astronomical_chain(n: int = 49) -> CSRGraph:
    """The path ``0 - 1 - ... - n-1`` with weights near ``5 * 10**16``.

    With seeds at both ends its distances pass the packed-key guard of
    :func:`repro.shortest_paths.vectorized.adopt_lexmin` (see
    :func:`packed_key_guard`) after a few hops, so every later reduction
    takes the sort-based path, while the weight sum stays far below the
    int64 refusal bound.  The weights are mirror-symmetric and ``n`` is odd, so
    both ends reach the middle vertex in the same reduction at an equal
    distance and only the smaller-seed tie-break decides its owner.
    """
    i = np.arange(n - 1, dtype=np.int64)
    weights = 5 * 10**16 + 7 * np.minimum(i, n - 2 - i)
    return CSRGraph.from_edges(n, np.stack([i, i + 1], axis=1), weights)


def near_bound_graph(seed: int = 3) -> CSRGraph:
    """A random connected graph scaled so that
    :meth:`CSRGraph.distance_bound` sits just below the int64 maximum:
    the largest weights an accepted graph of this shape may carry."""
    g = make_connected_graph(14, 30, seed=seed)
    src, dst, w = g.edge_array()
    scale = (int(np.iinfo(np.int64).max) - 1) // g.distance_bound()
    return CSRGraph.from_edges(g.n_vertices, np.stack([src, dst], axis=1), w * scale)


def packed_key_guard(n: int) -> int:
    """Largest distance the packed ``dist * n + owner`` key holds on an
    ``n``-vertex graph; the reduction sorts past it."""
    return (int(np.iinfo(np.int64).max) - n) // n


@pytest.fixture
def small_grid() -> CSRGraph:
    """6x6 unit-weight grid (deterministic topology)."""
    return grid_graph(6, 6)


@pytest.fixture
def weighted_grid() -> CSRGraph:
    """8x8 grid with weights in [1, 9]."""
    return assign_uniform_weights(grid_graph(8, 8), (1, 9), seed=42)


@pytest.fixture
def random_graph() -> CSRGraph:
    """Connected random weighted graph (~35 vertices)."""
    return make_connected_graph(40, 110, seed=7)


@pytest.fixture
def skewed_graph() -> CSRGraph:
    """Small RMAT graph with hubs (exercises delegates/partitioning)."""
    g = rmat_graph(8, 6, seed=3)
    return assign_uniform_weights(g, (1, 50), seed=4)


@pytest.fixture
def citation_graph() -> CSRGraph:
    """Preferential-attachment graph (connected by construction)."""
    g = preferential_attachment_graph(120, 3, seed=5)
    return assign_uniform_weights(g, (1, 30), seed=6)
