"""Connectivity primitives: BFS levels, connected components, largest CC.

The paper's seed-selection procedure (§V) first identifies the largest
connected component with BFS and then samples seeds from BFS levels, so
these routines are part of the evaluated pipeline, not just utilities.
Implementations are frontier-vectorised NumPy BFS (no per-vertex Python
loop on the hot path).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "bfs_levels",
    "connected_components",
    "largest_component_vertices",
    "is_connected",
]

UNREACHED = np.int64(-1)


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (``-1`` if unreachable).

    Frontier-at-a-time BFS: each round gathers all neighbours of the
    current frontier with two vectorised CSR expansions.
    """
    n = graph.n_vertices
    if not (0 <= source < n):
        raise GraphError(f"source {source} out of range for {n} vertices")
    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = graph.indptr[frontier]
        ends = graph.indptr[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        # gather all neighbours of the frontier in one vectorised shot:
        # absolute CSR positions = repeat(starts) + within-vertex offsets
        counts = ends - starts
        base = np.repeat(starts, counts)
        group_start = np.repeat(np.cumsum(counts) - counts, counts)
        offsets = np.arange(total, dtype=np.int64) - group_start
        out = np.unique(graph.indices[base + offsets])
        new = out[levels[out] == UNREACHED]
        levels[new] = level
        frontier = new
    return levels


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component id per vertex (ids are 0-based, ordered by first vertex).

    NumPy-only min-root hooking: every round hooks, along each edge whose
    endpoints still sit under different roots, the larger root under the
    smaller one, then flattens the forest by pointer jumping.  Roots only
    ever move to smaller ids, so each component ends rooted at its
    smallest vertex, and numbering the roots in id order gives the
    first-vertex order.
    """
    n = graph.n_vertices
    root = np.arange(n, dtype=np.int64)
    u, v, _ = graph.edge_array()
    while u.size:
        ru, rv = root[u], root[v]
        split = ru != rv
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(n, dtype=np.int64)
    return (np.cumsum(is_root) - 1)[root]


def largest_component_vertices(graph: CSRGraph) -> np.ndarray:
    """Vertex ids of the largest connected component (sorted ascending).

    This mirrors the paper's seed-selection precondition: "first, we
    identify the largest connected component using Breadth-first search".
    """
    labels = connected_components(graph)
    if labels.size == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.bincount(labels)
    return np.nonzero(labels == counts.argmax())[0].astype(np.int64)


def is_connected(graph: CSRGraph) -> bool:
    """True iff the graph has exactly one connected component."""
    if graph.n_vertices <= 1:
        return True
    labels = connected_components(graph)
    return bool((labels == labels[0]).all())
