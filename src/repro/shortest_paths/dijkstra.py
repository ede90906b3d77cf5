"""Single-source Dijkstra on :class:`~repro.graph.csr.CSRGraph`.

Binary-heap (``heapq``) implementation with lazy deletion.  Distances are
``int64`` with :data:`~repro.shortest_paths.voronoi.INF` as the unreached
sentinel — edge weights are positive integers throughout the library, so
integer arithmetic is exact (no float round-off in tie-breaking, which
matters for the deterministic cross-implementation agreement tests).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["dijkstra", "dijkstra_to_targets", "reconstruct_path"]

INF = np.iinfo(np.int64).max
NO_VERTEX = np.int64(-1)


def dijkstra(graph: CSRGraph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Shortest distances and predecessors from ``source``.

    Returns
    -------
    dist:
        ``int64[n]``, :data:`INF` where unreachable.
    pred:
        ``int64[n]``, predecessor on a shortest path (``-1`` for the
        source and unreachable vertices).
    """
    graph.check_distance_range()
    n = graph.n_vertices
    if not (0 <= source < n):
        raise GraphError(f"source {source} out of range")
    dist = np.full(n, INF, dtype=np.int64)
    pred = np.full(n, NO_VERTEX, dtype=np.int64)
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while heap:
        d, u = heapq.heappop(heap)
        if d != dist[u]:
            continue  # stale entry
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            nd = d + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (int(nd), int(v)))
    return dist, pred


def dijkstra_to_targets(
    graph: CSRGraph,
    source: int,
    targets: Iterable[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Dijkstra that stops once every target is settled.

    :func:`~repro.shortest_paths.apsp.seed_pairs_apsp` runs this once per
    seed: the paper's Table I measures exactly this "APSP among seeds"
    cost.  Early exit keeps the asymptotics identical but trims constants
    on graphs whose seeds cluster.  The KMB baseline runs the full
    :func:`dijkstra` instead: it keeps each seed's predecessor tree to
    expand its MST edges into paths.
    """
    graph.check_distance_range()
    n = graph.n_vertices
    if not (0 <= source < n):
        raise GraphError(f"source {source} out of range")
    target_set = {int(t) for t in targets}
    # sorted so the failing target (and thus the error) is deterministic
    for t in sorted(target_set):
        if not (0 <= t < n):
            raise GraphError(f"target {t} out of range")
    remaining = set(target_set)
    remaining.discard(source)
    dist = np.full(n, INF, dtype=np.int64)
    pred = np.full(n, NO_VERTEX, dtype=np.int64)
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while heap and remaining:
        d, u = heapq.heappop(heap)
        if d != dist[u]:
            continue
        remaining.discard(u)
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            nd = d + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (int(nd), int(v)))
    return dist, pred


def reconstruct_path(pred: np.ndarray, source: int, target: int) -> list[int]:
    """Vertex sequence ``source .. target`` following ``pred`` pointers.

    Raises :class:`GraphError` if ``target`` was not reached from
    ``source`` (broken predecessor chain).
    """
    path = [int(target)]
    guard = pred.size + 1
    v = int(target)
    while v != source:
        v = int(pred[v])
        if v == NO_VERTEX:
            raise GraphError(f"no path recorded from {source} to {target}")
        path.append(v)
        guard -= 1
        if guard < 0:
            raise GraphError("predecessor chain contains a cycle")
    path.reverse()
    return path
