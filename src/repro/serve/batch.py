"""Request coalescing: N compatible solves as ONE multi-source sweep.

The Voronoi-cell sweep — the paper's dominant cost — is already
multi-source, and its converged ``(src, pred, dist)`` fixpoint is a
pure function of ``(graph, seeds)`` (every backend's deterministic
``(dist, owner)`` tie-break plus canonical predecessors).  That makes
independent requests fusable: place each request in its own disjoint
copy of the graph, run a *single* backend call over the stacked CSR,
and slice the converged arrays back per request.  Each slice is exactly
the fixpoint an independent sweep would have produced — the components
never interact, and the fixpoint is unique — so batched results are
**bit-identical** to sequential ones (property-tested in
``tests/test_serve.py``).

Fusing was meant to amortise the per-wave NumPy dispatch of the
``delta-numpy`` kernel over R components that settle in the same
waves.  Measured, it does not: on the 50,000-vertex e2e grid one fused
sweep of three 30-seed requests takes 1.31x as long as three solo
sweeps (52.4 against 40.0 ms, medians of 9 on a 2-CPU shared VM), and
every request in the batch waits for the whole fused sweep.  Open
item 2 of ROADMAP.md proposes deleting the fused sweep.  The stacked
graph costs R× the CSR memory for the duration of the sweep — the
service bounds R with its ``max_batch`` knob.

This is the ROADMAP's "multi-tenant" shape: the fused instance is a
Steiner *Forest*-like problem (independent terminal groups in disjoint
components) executed as one array program.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.shortest_paths.backends import compute_multisource
from repro.shortest_paths.voronoi import NO_VERTEX, VoronoiDiagram

__all__ = ["stack_graphs", "fused_multisource"]


def stack_graphs(graph: CSRGraph, n_copies: int) -> CSRGraph:
    """The disjoint union of ``n_copies`` of ``graph`` as one CSR.

    Copy ``r`` owns the vertex range ``[r*n, (r+1)*n)``; no edges cross
    copies, so any per-component algorithm behaves on each copy exactly
    as it would on ``graph`` alone.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    if n_copies == 1:
        return graph
    n, m = graph.n_vertices, graph.n_arcs
    reps = np.arange(n_copies, dtype=np.int64)
    # per-copy offsets applied to adjacency offsets and neighbour ids
    indptr = np.concatenate(
        [graph.indptr[:-1] + r * m for r in reps] + [np.asarray([n_copies * m])]
    )
    indices = np.concatenate([graph.indices + r * n for r in reps])
    weights = np.tile(graph.weights, n_copies)
    stacked = CSRGraph(indptr, indices, weights)
    # no path crosses copies, so one copy's distance bound holds for all
    stacked._distance_bound = graph.distance_bound()
    return stacked


def fused_multisource(
    graph: CSRGraph,
    seed_sets: Sequence[Sequence[int]],
    *,
    backend: str = "delta-numpy",
) -> list[VoronoiDiagram]:
    """Run one multi-source sweep answering every seed set at once.

    Returns one :class:`VoronoiDiagram` slice per seed set, in order,
    each bit-identical to ``compute_multisource(graph, seeds,
    backend=...)`` for that request alone.
    """
    if not seed_sets:
        raise ValueError("seed_sets must be non-empty")
    n = graph.n_vertices
    n_req = len(seed_sets)

    if n_req == 1:
        return [compute_multisource(graph, seed_sets[0], backend=backend)]

    stacked = stack_graphs(graph, n_req)
    all_seeds = np.concatenate(
        [
            np.asarray(sorted(int(s) for s in seeds), dtype=np.int64) + r * n
            for r, seeds in enumerate(seed_sets)
        ]
    )
    fused = compute_multisource(stacked, all_seeds, backend=backend)

    diagrams: list[VoronoiDiagram] = []
    for r, seeds in enumerate(seed_sets):
        lo, hi = r * n, (r + 1) * n
        src = fused.src[lo:hi].copy()
        pred = fused.pred[lo:hi].copy()
        dist = fused.dist[lo:hi].copy()
        # map stacked vertex ids back into the original graph's id space
        src[src != NO_VERTEX] -= lo
        pred[pred != NO_VERTEX] -= lo
        diagrams.append(
            VoronoiDiagram(
                seeds=np.asarray(sorted(int(s) for s in seeds), dtype=np.int64),
                src=src,
                pred=pred,
                dist=dist,
            )
        )
    return diagrams
