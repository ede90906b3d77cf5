"""Shared-memory reference implementation of the parallel algorithm
(paper Algorithm 2).

This is the fast path for library users who just want a tree: one
multi-source Dijkstra (the exact fixpoint the asynchronous distributed
kernel converges to), a vectorised cross-cell-edge scan, a sequential
Prim MST, and predecessor walks.  The distributed solver produces the
**identical** tree (same edges, same total distance) because both paths
share the canonical-predecessor rule, the distance-graph construction and
the tree assembly — this equality is asserted by the integration tests
and is the library's primary correctness anchor.

:func:`steiner_tree_from_diagram` is the downstream half (steps 2-6) on
its own: given a converged Voronoi diagram it deterministically produces
the tree.  (The serve batcher takes the other route into a precomputed
diagram: it hands each fused-sweep diagram to
``DistributedSteinerSolver.solve(seeds, diagram=...)``.)
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

import numpy as np

from repro.core.distance_graph import build_distance_graph
from repro.core.result import SteinerTreeResult
from repro.core.tree_edge import walk_tree_edges
from repro.errors import DisconnectedSeedsError
from repro.mst.prim import prim_mst
from repro.mst.union_find import UnionFind
from repro.seeds.selection import validate_seed_set
from repro.shortest_paths.backends import get_backend

__all__ = ["sequential_steiner_tree", "steiner_tree_from_diagram"]


def steiner_tree_from_diagram(
    graph: "CSRGraph",
    seeds_arr: np.ndarray,
    src: np.ndarray,
    pred: np.ndarray,
    dist: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Assemble the Steiner tree from a converged Voronoi diagram.

    Steps 2-6 of Algorithm 2: distance graph ``G'1``, sequential Prim
    MST, pruning, predecessor walks and edge assembly.  Deterministic
    given the diagram — every solve path (sequential, distributed,
    batched serve) funnels through the same construction, which is what
    makes their trees comparable bit-for-bit.

    Returns ``(edges, total_distance)`` where ``edges`` is the
    ``int64[k, 3]`` row array of :class:`SteinerTreeResult`.

    Raises
    ------
    DisconnectedSeedsError
        If the seeds do not share a connected component.
    """
    k = seeds_arr.size

    # Step 2: distance graph G'1 with bridging edges
    dg = build_distance_graph(graph, seeds_arr, src, dist)

    # Step 3: sequential MST G'2 of G'1
    si, ti = dg.seed_indices()
    mst_idx = prim_mst(k, si, ti, dg.dprime)
    if mst_idx.size != k - 1:
        uf = UnionFind(k)
        for e in mst_idx:
            uf.union(int(si[e]), int(ti[e]))
        root = uf.find(0)
        unreached = [int(seeds_arr[i]) for i in range(k) if uf.find(i) != root]
        raise DisconnectedSeedsError(unreached)

    # Steps 4-5: prune non-MST cross edges, walk predecessors
    active = np.zeros(dg.n_edges, dtype=bool)
    active[mst_idx] = True
    endpoints = np.concatenate([dg.u[active], dg.v[active]])
    path_edges = walk_tree_edges(src, pred, dist, endpoints)

    # Step 6: assemble GS
    cross_w = dg.dprime[active] - dist[dg.u[active]] - dist[dg.v[active]]
    edge_rows = {
        (int(min(u, v)), int(max(u, v))): int(w)
        for u, v, w in zip(dg.u[active], dg.v[active], cross_w)
    }
    for u, v, w in path_edges:
        edge_rows[(u, v)] = w
    edges = np.asarray(
        [(u, v, w) for (u, v), w in sorted(edge_rows.items())],
        dtype=np.int64,
    ).reshape(-1, 3)
    total = int(edges[:, 2].sum()) if edges.size else 0
    return edges, total


def sequential_steiner_tree(
    graph: "CSRGraph",
    seeds: Sequence[int],
    *,
    voronoi_backend: str = "delta-numpy",
) -> SteinerTreeResult:
    """2-approximate Steiner minimal tree, shared-memory reference.

    Guarantees ``D(GS)/Dmin <= 2 (1 - 1/l)`` (Mehlhorn's bound via KMB).

    Parameters
    ----------
    voronoi_backend:
        Voronoi-cell kernel — a key of
        :data:`repro.shortest_paths.backends.BACKENDS` (``"dijkstra"`` or
        ``"delta-numpy"``), matching the
        :class:`~repro.core.config.SolverConfig` field of the same
        name.  Every backend yields the identical diagram, hence the
        identical tree; the choice is purely a performance decision —
        the default is the vectorised ``"delta-numpy"`` kernel (~6-8x
        the heap reference on 100K-edge graphs, bit-identical output).

    Raises
    ------
    DisconnectedSeedsError
        If the seeds are not mutually reachable.
    """
    t0 = time.perf_counter()
    seeds_arr = validate_seed_set(graph, seeds)

    # Step 1: Voronoi cells (src, pred, dist per vertex)
    vd = get_backend(voronoi_backend)(graph, seeds_arr)

    # Steps 2-6: shared deterministic assembly
    edges, total = steiner_tree_from_diagram(
        graph, seeds_arr, vd.src, vd.pred, vd.dist
    )

    return SteinerTreeResult(
        seeds=seeds_arr,
        edges=edges,
        total_distance=total,
        phases=[],
        wall_time_s=time.perf_counter() - t0,
        diagram=vd,
        provenance={"backend": voronoi_backend, "cache_hit": False},
    )
