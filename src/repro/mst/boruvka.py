"""Borůvka's MST (component-parallel rounds).

Included because the paper's discussion of *why not* a distributed MST
(§III, citing Bader & Cong and the Galois Lonestar study) hinges on the
behaviour of exactly this algorithm: available parallelism collapses as
components merge.  The ``ablation-mst`` experiment measures that collapse —
components per round — to reproduce the argument quantitatively.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.mst.union_find import UnionFind

__all__ = ["boruvka_mst", "boruvka_rounds"]


def boruvka_mst(
    n_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Indices of a minimum spanning forest (Borůvka)."""
    chosen, _ = boruvka_rounds(n_vertices, src, dst, weight)
    return chosen


def boruvka_rounds(
    n_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """Borůvka MST plus per-round component counts.

    Returns
    -------
    (edge_indices, components_per_round):
        ``components_per_round[r]`` is the number of live components at
        the *start* of round ``r`` — the "available parallelism" curve the
        paper cites as the reason to avoid distributed MST.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.int64)
    m = src.size
    if dst.size != m or weight.size != m:
        raise GraphError("src/dst/weight must have equal length")
    if m and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_vertices):
        raise GraphError("edge endpoint out of range")

    uf = UnionFind(n_vertices)
    chosen: set[int] = set()
    rounds: list[int] = []
    while True:
        # cheapest outgoing edge per component, deterministic tie-break on
        # (weight, edge index)
        best: dict[int, int] = {}
        live_edges = 0
        for e in range(m):
            ra, rb = uf.find(int(src[e])), uf.find(int(dst[e]))
            if ra == rb:
                continue
            live_edges += 1
            we = int(weight[e])
            for comp in (ra, rb):
                cur = best.get(comp)
                if cur is None or (we, e) < (int(weight[cur]), cur):
                    best[comp] = e
        if not best:
            break
        rounds.append(uf.n_components)
        merged_any = False
        for e in best.values():
            if uf.union(int(src[e]), int(dst[e])):
                chosen.add(e)
                merged_any = True
        if not merged_any:  # pragma: no cover - defensive
            break
        if live_edges == 0:
            break
    return np.asarray(sorted(chosen), dtype=np.int64), rounds
