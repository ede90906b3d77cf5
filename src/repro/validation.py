"""Validation of Steiner trees and Voronoi diagrams.

These checks encode the definitions from the paper's §II and are used
throughout the test suite (including the Hypothesis property tests) and
by the harness to certify every benchmark run before reporting numbers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.mst.union_find import UnionFind
from repro.shortest_paths.voronoi import INF, NO_VERTEX, VoronoiDiagram

__all__ = [
    "validate_steiner_tree",
    "validate_voronoi_diagram",
    "approximation_ratio",
    "approximation_error_pct",
]


def _arc_weights(graph: CSRGraph, u: int, v: int) -> np.ndarray:
    """Weights of every stored ``u -> v`` arc: none when the edge is
    absent, several on a multigraph that keeps parallel edges."""
    return graph.neighbor_weights(u)[graph.neighbors(u) == v]


def validate_steiner_tree(
    graph: CSRGraph,
    seeds: Sequence[int],
    edges: np.ndarray,
    *,
    require_seed_leaves: bool = True,
) -> None:
    """Assert ``edges`` forms a valid Steiner tree for ``seeds``.

    Checks (paper §II definitions):

    1. every row ``(u, v, w)`` is a real graph edge with its true weight
       (on a multigraph, the weight of one of the parallel ``(u, v)``
       edges);
    2. the edge set is acyclic (union-find);
    3. all seeds lie in one connected tree component;
    4. the tree is *spanning-minimal*: every tree vertex connects to the
       seeds (no disconnected decorative edges);
    5. optionally, every leaf is a seed (KMB Step 5 guarantees no Steiner
       vertex remains a leaf).

    Raises :class:`ValidationError` with a specific message on the first
    violated property.
    """
    seeds_arr = np.asarray(sorted(int(s) for s in seeds), dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    n = graph.n_vertices

    if seeds_arr.size == 0:
        raise ValidationError("empty seed set")
    if seeds_arr.size == 1 and edges.shape[0] == 0:
        return  # single seed, trivial tree

    # 1. membership + weight
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) endpoint out of range")
        weights = _arc_weights(graph, int(u), int(v))
        if weights.size == 0:
            raise ValidationError(f"edge ({u},{v}) is not in the graph")
        if not (weights == w).any():
            raise ValidationError(
                f"edge ({u},{v}) carries weight {w}, graph says {weights.tolist()}"
            )

    # 2. acyclicity
    uf = UnionFind(n)
    for u, v, _ in edges:
        if not uf.union(int(u), int(v)):
            raise ValidationError(f"cycle introduced by edge ({u},{v})")

    # 3. seed connectivity
    root = uf.find(int(seeds_arr[0]))
    for s in seeds_arr[1:]:
        if uf.find(int(s)) != root:
            raise ValidationError(f"seed {s} not connected to seed {seeds_arr[0]}")

    # 4. no stray components: every edge endpoint must be connected to the
    # seeds' component
    for u, v, _ in edges:
        if uf.find(int(u)) != root:
            raise ValidationError(f"tree edge ({u},{v}) disconnected from seeds")

    # |edges| == |vertices| - 1 for the tree component
    tree_vertices = np.unique(
        np.concatenate([edges[:, 0], edges[:, 1], seeds_arr])
    )
    if edges.shape[0] != tree_vertices.size - 1:
        raise ValidationError(
            f"{edges.shape[0]} edges over {tree_vertices.size} vertices: not a tree"
        )

    # 5. leaves are seeds
    if require_seed_leaves and edges.shape[0]:
        deg: dict[int, int] = {}
        for u, v, _ in edges:
            deg[int(u)] = deg.get(int(u), 0) + 1
            deg[int(v)] = deg.get(int(v), 0) + 1
        seed_set = {int(s) for s in seeds_arr}
        for v, d in deg.items():
            if d == 1 and v not in seed_set:
                raise ValidationError(f"Steiner vertex {v} is a leaf")


def validate_voronoi_diagram(graph: CSRGraph, vd: VoronoiDiagram) -> None:
    """Assert the Voronoi diagram invariants of the paper's §II.

    1. cells partition the reached vertex set and every seed owns itself;
    2. ``dist[v]`` equals the true multi-source shortest distance
       (checked by local optimality: no edge can improve any vertex, and
       every non-seed reached vertex has a tight predecessor edge, one
       of its parallel edges on a multigraph);
    3. predecessor chains stay within the cell and strictly decrease in
       distance (hence acyclic, ending at the seed).
    """
    src, pred, dist = vd.src, vd.pred, vd.dist
    for s in vd.seeds:
        if src[s] != s or dist[s] != 0:
            raise ValidationError(f"seed {s} does not own itself at distance 0")

    u_arr = graph.arc_tails()
    v_arr, w_arr = graph.indices, graph.weights
    both = (dist[u_arr] != INF) & (dist[v_arr] != INF)
    # 2a. no improving edge: dist[v] <= dist[u] + w for all edges
    if both.any():
        lhs = dist[v_arr[both]]
        rhs = dist[u_arr[both]] + w_arr[both]
        bad = lhs > rhs
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise ValidationError(
                f"edge relaxation violated at arc "
                f"({u_arr[both][i]} -> {v_arr[both][i]})"
            )
    # reached vertex adjacent to unreached one is impossible
    half = (dist[u_arr] != INF) & (dist[v_arr] == INF)
    if half.any():
        raise ValidationError("reached vertex adjacent to unreached vertex")

    seed_set = {int(s) for s in vd.seeds}
    reached = np.nonzero(src != NO_VERTEX)[0]
    for v in reached:
        v = int(v)
        if v in seed_set:
            continue
        p = int(pred[v])
        if p == NO_VERTEX:
            raise ValidationError(f"reached non-seed {v} has no predecessor")
        if src[p] != src[v]:
            raise ValidationError(f"predecessor of {v} lies in another cell")
        weights = _arc_weights(graph, p, v)
        if weights.size == 0:
            raise ValidationError(f"predecessor {p} of {v} is not a neighbour")
        if not (dist[p] + weights == dist[v]).any():
            raise ValidationError(f"predecessor edge of {v} is not tight")
    # unreached vertices carry clean sentinel state
    unreached = np.nonzero(src == NO_VERTEX)[0]
    if unreached.size and not (
        (dist[unreached] == INF).all() and (pred[unreached] == NO_VERTEX).all()
    ):
        raise ValidationError("unreached vertex carries partial state")


def approximation_ratio(found_distance: int, optimal_distance: int) -> float:
    """``D(GS) / Dmin(G)`` — Table VII's left half."""
    if optimal_distance <= 0:
        raise ValidationError("optimal distance must be positive")
    return found_distance / optimal_distance


def approximation_error_pct(found_distance: int, optimal_distance: int) -> float:
    """Percent error relative to the optimum — Table VII's right half."""
    return (approximation_ratio(found_distance, optimal_distance) - 1.0) * 100.0
