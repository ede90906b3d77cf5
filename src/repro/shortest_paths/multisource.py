"""Alternative multi-source kernels for Voronoi-cell computation.

The paper (§III) weighs three families for the distance phase:

* **Dijkstra-order** multi-source search — the sequential reference
  (:func:`repro.shortest_paths.voronoi.compute_voronoi_cells`);
* **Bellman–Ford / SPFA** — tolerates asynchrony, the basis of the
  distributed kernel (Alg. 4);
* **Δ-stepping** (Meyer & Sanders; used by Ceccarello et al. for
  multi-source distance sweeps) — work-efficient but
  bucket-*synchronous*, which the paper argues "does not naturally
  extend to distributed memory".

This module provides the latter two as drop-in multi-source kernels
producing the *identical* fixpoint ``(src, dist)`` as the reference
(same lexicographic ``(dist, owner)`` tie-break), so the kernel choice
is a pure performance ablation — exercised by the kernel ablation bench
and cross-checked by tests.

Neither kernel is in the backend table
(:data:`repro.shortest_paths.backends.BACKENDS`): the ablation calls
them directly.  The production-speed variant of the Δ-stepping
schedule — NumPy bucket relaxations instead of this per-edge loop —
lives in :mod:`repro.shortest_paths.vectorized` and is the table's
``"delta-numpy"`` entry.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.seeds.selection import validate_seed_set
from repro.shortest_paths.voronoi import (
    INF,
    NO_VERTEX,
    VoronoiDiagram,
    canonicalize_predecessors,
)

__all__ = [
    "compute_voronoi_cells_spfa",
    "compute_voronoi_cells_delta_stepping",
]


def compute_voronoi_cells_spfa(
    graph: CSRGraph,
    seeds: Sequence[int],
) -> VoronoiDiagram:
    """Voronoi cells via queue-based Bellman–Ford (SPFA).

    The sequential analogue of the distributed Alg. 4 kernel: vertices
    adopt a lexicographic improvement ``(dist, owner)`` and re-notify
    neighbours.  Converges to the same fixpoint as the Dijkstra-order
    reference; predecessors are canonicalised for bit-equality.
    """
    seeds_arr = validate_seed_set(graph, seeds)
    n = graph.n_vertices
    src = np.full(n, NO_VERTEX, dtype=np.int64)
    dist = np.full(n, INF, dtype=np.int64)
    in_queue = np.zeros(n, dtype=bool)
    queue: deque[int] = deque()
    for s in seeds_arr:
        s = int(s)
        src[s] = s
        dist[s] = 0
        queue.append(s)
        in_queue[s] = True

    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du, su = dist[u], src[u]
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            nd = du + weights[i]
            if nd < dist[v] or (nd == dist[v] and su < src[v]):
                dist[v] = nd
                src[v] = su
                if not in_queue[v]:
                    queue.append(int(v))
                    in_queue[v] = True

    pred = canonicalize_predecessors(graph, src, dist)
    return VoronoiDiagram(seeds=seeds_arr, src=src, pred=pred, dist=dist)


def compute_voronoi_cells_delta_stepping(
    graph: CSRGraph,
    seeds: Sequence[int],
    delta: int | None = None,
) -> VoronoiDiagram:
    """Voronoi cells via multi-source Δ-stepping.

    Buckets are keyed by distance; within a bucket, light edges are
    settled iteratively, heavy edges once — the Meyer–Sanders schedule,
    generalised to multiple sources with the ``(dist, owner)``
    tie-break.  This is the Ceccarello-et-al.-style kernel the paper
    considered and rejected for distributed memory; sequentially it is
    a legitimate alternative, and the ablation bench compares it.
    """
    seeds_arr = validate_seed_set(graph, seeds)
    n = graph.n_vertices
    if delta is None:
        delta = max(1, int(graph.weights.mean())) if graph.n_arcs else 1
    if delta < 1:
        raise GraphError("delta must be >= 1")

    src = np.full(n, NO_VERTEX, dtype=np.int64)
    dist = np.full(n, INF, dtype=np.int64)
    buckets: dict[int, set[int]] = {0: set()}
    for s in seeds_arr:
        s = int(s)
        src[s] = s
        dist[s] = 0
        buckets[0].add(s)

    indptr, indices, weights = graph.indptr, graph.indices, graph.weights

    def relax(v: int, nd: int, owner: int) -> None:
        if nd < dist[v] or (nd == dist[v] and owner < src[v]):
            old_b = dist[v] // delta if dist[v] != INF else None
            if old_b is not None and old_b in buckets:
                buckets[old_b].discard(v)
            dist[v] = nd
            src[v] = owner
            buckets.setdefault(nd // delta, set()).add(v)

    while buckets:
        b = min(buckets)
        if not buckets[b]:
            del buckets[b]
            continue
        settled: list[int] = []
        while buckets.get(b):
            frontier = list(buckets[b])
            buckets[b] = set()
            settled.extend(frontier)
            for u in frontier:
                du, su = int(dist[u]), int(src[u])
                for i in range(indptr[u], indptr[u + 1]):
                    w = int(weights[i])
                    if w <= delta:
                        relax(int(indices[i]), du + w, su)
        del buckets[b]
        for u in settled:
            du, su = int(dist[u]), int(src[u])
            if du // delta != b:
                continue  # pushed into a later bucket meanwhile
            for i in range(indptr[u], indptr[u + 1]):
                w = int(weights[i])
                if w > delta:
                    relax(int(indices[i]), du + w, su)

    pred = canonicalize_predecessors(graph, src, dist)
    return VoronoiDiagram(seeds=seeds_arr, src=src, pred=pred, dist=dist)
