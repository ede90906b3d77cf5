"""Δ-stepping single-source shortest paths (Meyer & Sanders).

The paper discusses Δ-stepping as the work-efficient alternative used by
Ceccarello et al. for multi-source distance computation, but rejects it for
the distributed setting because its bucket synchronisation "does not
naturally extend to distributed memory".  We include a sequential
implementation (a) as another oracle for the shortest-path tests and (b)
so the ablation benches can contrast its bucket-synchronous behaviour with
the asynchronous Bellman–Ford kernel the paper chose.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["delta_stepping"]

INF = np.iinfo(np.int64).max
NO_VERTEX = np.int64(-1)


def delta_stepping(
    graph: CSRGraph,
    source: int,
    delta: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shortest distances/predecessors from ``source``.

    Parameters
    ----------
    delta:
        Bucket width.  Defaults to ``max(1, mean edge weight)`` — the
        standard heuristic.

    Returns
    -------
    ``(dist, pred)`` identical in meaning (and, on positive weights, in
    value) to :func:`repro.shortest_paths.dijkstra.dijkstra`.
    """
    graph.check_distance_range()
    n = graph.n_vertices
    if not (0 <= source < n):
        raise GraphError(f"source {source} out of range")
    if delta is None:
        delta = max(1, int(graph.weights.mean())) if graph.n_arcs else 1
    if delta < 1:
        raise GraphError("delta must be >= 1")

    dist = np.full(n, INF, dtype=np.int64)
    pred = np.full(n, NO_VERTEX, dtype=np.int64)
    dist[source] = 0
    buckets: dict[int, set[int]] = {0: {source}}
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights

    def relax(v: int, nd: int, via: int) -> None:
        if nd < dist[v]:
            old_b = dist[v] // delta if dist[v] != INF else None
            if old_b is not None and old_b in buckets:
                buckets[old_b].discard(v)
            dist[v] = nd
            pred[v] = via
            buckets.setdefault(nd // delta, set()).add(v)

    b = 0
    while buckets:
        while b not in buckets or not buckets[b]:
            if b in buckets and not buckets[b]:
                del buckets[b]
            if not buckets:
                return dist, pred
            b = min(buckets)
        # phase: repeatedly settle light edges within bucket b
        settled_this_bucket: list[int] = []
        while buckets.get(b):
            frontier = list(buckets[b])
            buckets[b] = set()
            settled_this_bucket.extend(frontier)
            for u in frontier:
                du = int(dist[u])
                for i in range(indptr[u], indptr[u + 1]):
                    w = int(weights[i])
                    if w <= delta:  # light edge
                        relax(int(indices[i]), du + w, u)
        del buckets[b]
        # heavy edges once per bucket
        for u in settled_this_bucket:
            du = int(dist[u])
            if du // delta != b:
                continue  # was re-relaxed into a later bucket
            for i in range(indptr[u], indptr[u + 1]):
                w = int(weights[i])
                if w > delta:
                    relax(int(indices[i]), du + w, u)
        b += 1
    return dist, pred
