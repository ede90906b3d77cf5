"""Mehlhorn's sequential 2-approximation (Inf. Proc. Letters 1988).

Replaces KMB's APSP with one Voronoi-cell sweep: the distance graph
``G'1`` (cells as vertices, min cross-cell connections as edges) provably
contains an MST of KMB's ``G1``, so the same bound holds at
``O(|V| log |V| + |E|)`` sequential cost.  This is the algorithm the
paper parallelises; the library's
:func:`~repro.core.sequential.sequential_steiner_tree` is the
optimised shared-memory variant, while this module follows Mehlhorn's
original post-processing (expand paths, re-MST, prune) for an honest
baseline — the two may pick different (equally valid) trees.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.baselines._common import finalize_tree
from repro.core.distance_graph import build_distance_graph
from repro.core.result import SteinerTreeResult
from repro.errors import DisconnectedSeedsError
from repro.graph.csr import CSRGraph
from repro.mst.kruskal import kruskal_mst
from repro.seeds.selection import validate_seed_set
from repro.shortest_paths.voronoi import compute_voronoi_cells

__all__ = ["mehlhorn_steiner_tree"]


def mehlhorn_steiner_tree(graph: CSRGraph, seeds: Sequence[int]) -> SteinerTreeResult:
    """Compute a 2-approximate Steiner tree with Mehlhorn's algorithm.

    The sweep is the heap reference
    (:func:`~repro.shortest_paths.voronoi.compute_voronoi_cells`).
    """
    t0 = time.perf_counter()
    seeds_arr = validate_seed_set(graph, seeds)
    k = seeds_arr.size
    if k == 1:
        return finalize_tree(graph, seeds_arr, seeds_arr, t0=t0)

    # Voronoi cells + distance graph G'1
    vd = compute_voronoi_cells(graph, seeds_arr)
    dg = build_distance_graph(graph, seeds_arr, vd.src, vd.dist)
    si, ti = dg.seed_indices()
    mst_idx = kruskal_mst(k, si, ti, dg.dprime)
    if mst_idx.size != k - 1:
        in_mst = np.zeros(k, dtype=bool)
        in_mst[si[mst_idx]] = True
        in_mst[ti[mst_idx]] = True
        raise DisconnectedSeedsError(
            [int(s) for s, ok in zip(seeds_arr, in_mst) if not ok]
        )

    # expand each MST edge (s, t) through its bridge (u, v):
    # path(u -> s) + (u, v) + path(v -> t), via Voronoi predecessors
    vertices: set[int] = {int(s) for s in seeds_arr}
    for e in mst_idx:
        for endpoint in (int(dg.u[e]), int(dg.v[e])):
            vertices.update(vd.path_to_seed(endpoint))

    return finalize_tree(graph, seeds_arr, vertices, t0=t0)
