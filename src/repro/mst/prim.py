"""Prim's MST on arrays — the paper's choice for ``G'2``.

Operates on a plain edge list (the distance graph ``G'1`` is materialised
as arrays, not a CSRGraph, because it is tiny and rebuilt per run).  The
eager variant keeps, for every vertex outside the tree, its cheapest
tree edge, so each step is one ``argmin`` over the vertices plus an
update over the new vertex's adjacency: ``O(n^2 + m)`` array work, a good
fit for the dense-ish ``k``-vertex distance graph.

Ties are broken on ``(weight, vertex, tree endpoint, edge index)`` — the
pop order of the textbook binary-heap Prim whose entries are those
tuples, kept as the oracle in ``tests/test_array_kernels.py`` — so the
result is a deterministic function of the input, which the
cross-implementation agreement tests rely on.  Handles disconnected
inputs by returning a minimum spanning *forest*: when no outside vertex
is reachable, a new tree starts at the smallest unreached id.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import run_starts
from repro.errors import GraphError

__all__ = ["prim_mst"]

_FREE = np.iinfo(np.int64).max  # key of a vertex with no tree edge yet


def prim_mst(
    n_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Indices (into the edge list) of a minimum spanning forest.

    Parameters
    ----------
    n_vertices:
        Vertex count; ids in ``src``/``dst`` must be ``< n_vertices``.
    src, dst, weight:
        Parallel arrays describing undirected edges.

    Returns
    -------
    ``int64[k]`` edge indices, sorted ascending, forming an MSF.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.int64)
    m = src.size
    if dst.size != m or weight.size != m:
        raise GraphError("src/dst/weight must have equal length")
    if m and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_vertices):
        raise GraphError("edge endpoint out of range")

    # Candidates pack as rank * (n + 1) + tree endpoint.  Prim's choices
    # depend on the order of the weights alone, so weights that could
    # overflow that packing (or are negative) are replaced by their
    # position in the sorted weights: ties stay ties.
    rank = weight
    if m and (weight.min() < 0 or weight.max() >= _FREE // (n_vertices + 1) - 1):
        rank = np.searchsorted(np.sort(weight), weight)

    # adjacency in CSR form, grouped by vertex; a parallel group of edges
    # between one vertex pair collapses to its smallest (weight, index)
    ends = np.concatenate([src, dst])
    other = np.concatenate([dst, src])
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    pair = ends * np.int64(n_vertices) + other
    order = np.argsort(pair)
    if not run_starts(pair[order]).all():
        order = np.lexsort((eid, rank[eid], pair))
        order = order[run_starts(pair[order])]
    other, eid = other[order], eid[order]
    stride = np.int64(n_vertices + 1)
    packed_w = rank[eid] * stride
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends[order], minlength=n_vertices), out=indptr[1:])
    bounds = indptr.tolist()

    # per outside vertex: key = weight rank of its best tree edge, best =
    # that rank packed with the edge's tree endpoint (the heap's (w, u)
    # tie-break order), best_e = the edge.  Tree vertices hold best = -1,
    # which no candidate beats; vertices without a tree edge hold _FREE.
    key = np.full(n_vertices, _FREE, dtype=np.int64)
    best = np.full(n_vertices, _FREE, dtype=np.int64)
    best_e = np.zeros(n_vertices, dtype=np.int64)
    chosen: list[int] = []
    for _ in range(n_vertices):
        x = int(key.argmin())
        if key[x] == _FREE:  # nothing reachable: new tree at the smallest free id
            x = int(np.argmax(best == _FREE))
        else:
            chosen.append(int(best_e[x]))
        key[x] = _FREE
        best[x] = -1

        lo, hi = bounds[x], bounds[x + 1]
        nbr = other[lo:hi]
        cand = packed_w[lo:hi] + x
        better = cand < best[nbr]
        nbr, cand = nbr[better], cand[better]
        best[nbr] = cand
        key[nbr] = cand // stride
        best_e[nbr] = eid[lo:hi][better]
    return np.sort(np.asarray(chosen, dtype=np.int64))
