"""Exact Voronoi-cell computation (Mehlhorn's construction).

For seed set ``S``, the Voronoi cell ``N(s)`` of ``s in S`` is the set of
vertices closer to ``s`` than to any other seed (paper §II).  One
multi-source Dijkstra sweep — all seeds start at distance 0 — computes, for
every vertex ``v``:

* ``src[v]``  — the owning seed (``src(v)`` in the paper),
* ``pred[v]`` — predecessor on the shortest path to that seed,
* ``dist[v]`` — ``d1(src(v), v)``.

Ties (equidistant seeds) are broken toward the **smaller seed vertex id**,
which makes the diagram a deterministic function of the graph — the same
rule the distributed implementation's message ordering enforces, so the
sequential and simulated-distributed code paths agree bit-for-bit.

This module is the sequential reference; the distributed version lives in
:mod:`repro.core.voronoi_visitor` and is checked against this one in the
integration tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.seeds.selection import validate_seed_set

__all__ = [
    "INF",
    "NO_VERTEX",
    "VoronoiDiagram",
    "compute_voronoi_cells",
    "canonicalize_predecessors",
]

INF = np.iinfo(np.int64).max
NO_VERTEX = np.int64(-1)


@dataclass
class VoronoiDiagram:
    """Per-vertex Voronoi state ``(src, pred, dist)`` for a seed set.

    Attributes
    ----------
    seeds:
        The seed vertex ids, ascending, as given to
        :func:`compute_voronoi_cells`.
    src:
        ``int64[n]`` owning seed per vertex; ``-1`` where unreachable.
    pred:
        ``int64[n]`` predecessor towards the owning seed; ``-1`` for seeds
        themselves and unreachable vertices.
    dist:
        ``int64[n]`` distance to the owning seed; :data:`INF` where
        unreachable.
    """

    seeds: np.ndarray
    src: np.ndarray
    pred: np.ndarray
    dist: np.ndarray

    def cell(self, seed: int) -> np.ndarray:
        """Vertex ids of ``N(seed)``."""
        return np.nonzero(self.src == seed)[0].astype(np.int64)

    def cell_sizes(self) -> dict[int, int]:
        """``{seed: |N(seed)|}`` for all seeds."""
        return {int(s): int((self.src == s).sum()) for s in self.seeds}

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices belonging to some cell."""
        return self.src != NO_VERTEX

    def path_to_seed(self, v: int) -> list[int]:
        """Vertices on the recorded shortest path ``v .. src[v]``."""
        if self.src[v] == NO_VERTEX:
            raise GraphError(f"vertex {v} is not in any Voronoi cell")
        path = [int(v)]
        guard = self.src.size + 1
        while path[-1] != self.src[v]:
            nxt = int(self.pred[path[-1]])
            if nxt == NO_VERTEX:
                raise GraphError(f"broken predecessor chain at {path[-1]}")
            path.append(nxt)
            guard -= 1
            if guard < 0:
                raise GraphError("predecessor chain contains a cycle")
        return path


def compute_voronoi_cells(graph: CSRGraph, seeds: Sequence[int]) -> VoronoiDiagram:
    """Compute the Voronoi diagram of ``seeds`` over ``graph``.

    Single multi-source Dijkstra: the heap is keyed ``(dist, src, vertex)``
    so equidistant claims resolve toward the smaller seed id, then the
    smaller vertex id — a total order, hence a deterministic diagram.
    ``pred`` holds the sweep-order predecessors; the ``dijkstra``
    backend (:mod:`repro.shortest_paths.backends`) wraps this sweep and
    canonicalises them.

    Complexity ``O((|V| + |E|) log |V|)`` regardless of ``|S|`` — this
    independence from the seed count is exactly why the paper prefers
    Voronoi cells over APSP (its Table I).
    """
    seeds_arr = validate_seed_set(graph, seeds)
    n = graph.n_vertices
    src: np.ndarray = np.full(n, NO_VERTEX, dtype=np.int64)
    pred = np.full(n, NO_VERTEX, dtype=np.int64)
    dist = np.full(n, INF, dtype=np.int64)

    heap: list[tuple[int, int, int]] = []
    for s in seeds_arr:
        s = int(s)
        dist[s] = 0
        src[s] = s
        heap.append((0, s, s))
    heapq.heapify(heap)

    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, owner, u = heapq.heappop(heap)
        if settled[u] or d != dist[u] or owner != src[u]:
            continue
        settled[u] = True
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if settled[v]:
                continue
            nd = d + weights[i]
            # strict improvement, or equal distance but smaller owning seed
            if nd < dist[v] or (nd == dist[v] and owner < src[v]):
                dist[v] = nd
                src[v] = owner
                pred[v] = u
                heapq.heappush(heap, (int(nd), int(owner), int(v)))
    return VoronoiDiagram(seeds=seeds_arr, src=src, pred=pred, dist=dist)


def canonicalize_predecessors(
    graph: CSRGraph,
    src: np.ndarray,
    dist: np.ndarray,
) -> np.ndarray:
    """Order-independent predecessor assignment.

    Message-passing (and even heap-based Dijkstra) record *a* valid
    predecessor whose identity depends on relaxation order.  To make the
    output Steiner tree a deterministic function of the graph — so the
    distributed simulation, the sequential reference and every queue
    discipline produce the *identical* tree — both code paths rewrite
    ``pred`` canonically after convergence:

        ``pred[v] = min { u in adj(v) : src[u] == src[v]
                          and dist[u] + d(u, v) == dist[v] }``

    Any vertex reached by the sweep has at least one such tight same-cell
    in-neighbour (the one its final state was adopted from), distances
    strictly decrease along the chain (weights are positive), and the
    chain terminates at the cell's seed — so the canonical ``pred`` is a
    valid shortest-path in-forest.  Fully vectorised (one pass over the
    arc arrays).
    """
    n = graph.n_vertices
    u_arr = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    v_arr = graph.indices
    w_arr = graph.weights
    ok = (dist[u_arr] != INF) & (dist[v_arr] != INF) & (dist[v_arr] > 0)
    u_ok, v_ok, w_ok = u_arr[ok], v_arr[ok], w_arr[ok]
    tight = (src[u_ok] == src[v_ok]) & (dist[u_ok] + w_ok == dist[v_ok])
    pred = np.full(n, NO_VERTEX, dtype=np.int64)
    tmp = np.full(n, n, dtype=np.int64)  # sentinel: n is > any vertex id
    np.minimum.at(tmp, v_ok[tight], u_ok[tight])
    chosen = tmp < n
    pred[chosen] = tmp[chosen]
    return pred
