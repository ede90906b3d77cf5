"""Queue-based Bellman–Ford (SPFA) single-source shortest paths.

The paper bases its distributed Voronoi kernel on Bellman–Ford because —
unlike Dijkstra or Δ-stepping — it tolerates fully asynchronous relaxation:
a vertex may relax with a stale distance and later be corrected.  This
sequential version is used by tests as a second oracle and by the BSP
ablation as the per-round relaxation kernel.
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["bellman_ford"]

INF = np.iinfo(np.int64).max
NO_VERTEX = np.int64(-1)


def bellman_ford(graph: CSRGraph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Shortest distances/predecessors from ``source`` via SPFA.

    Returns the same ``(dist, pred)`` pair as
    :func:`repro.shortest_paths.dijkstra.dijkstra`; on graphs with positive
    weights the two must agree exactly (tested).
    """
    graph.check_distance_range()
    n = graph.n_vertices
    if not (0 <= source < n):
        raise GraphError(f"source {source} out of range")
    dist = np.full(n, INF, dtype=np.int64)
    pred = np.full(n, NO_VERTEX, dtype=np.int64)
    dist[source] = 0
    in_queue = np.zeros(n, dtype=bool)
    queue: deque[int] = deque([source])
    in_queue[source] = True
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du = dist[u]
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            nd = du + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                if not in_queue[v]:
                    queue.append(int(v))
                    in_queue[v] = True
    return dist, pred
