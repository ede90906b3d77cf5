"""Request coalescing: N compatible solves as ONE multi-source sweep.

The Voronoi-cell sweep — the paper's dominant cost — is already
multi-source, and its converged ``(src, pred, dist)`` fixpoint is a
pure function of ``(graph, seeds)`` (the registry's deterministic
``(dist, owner)`` tie-break plus canonical predecessors).  That makes
independent requests fusable: place each request in its own disjoint
copy of the graph, run a *single* backend call over the stacked CSR,
and slice the converged arrays back per request.  Each slice is exactly
the fixpoint an independent sweep would have produced — the components
never interact, and the fixpoint is unique — so batched results are
**bit-identical** to sequential ones (property-tested in
``tests/test_serve.py``).

Why fuse at all?  The vectorised ``delta-numpy`` kernel pays a fixed
NumPy dispatch overhead per relaxation wave; stacking R requests
amortises that overhead over R components that settle in the same
waves.  The stacked graph costs R× the CSR memory for the duration
of the sweep — the service bounds R with its ``max_batch`` knob.

This is the ROADMAP's "multi-tenant" shape: the fused instance is a
Steiner *Forest*-like problem (independent terminal groups in disjoint
components) executed as one array program.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.shortest_paths.backends import compute_multisource
from repro.shortest_paths.voronoi import NO_VERTEX, VoronoiDiagram

__all__ = ["stack_graphs", "fused_multisource", "FusedSweep"]


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


class FusedSweep:
    """Outcome of one fused sweep: per-request diagrams + provenance."""

    __slots__ = ("diagrams", "backend", "elapsed_s", "batch_size")

    def __init__(
        self,
        diagrams: list[VoronoiDiagram],
        backend: str,
        elapsed_s: float,
    ) -> None:
        self.diagrams = diagrams
        self.backend = backend
        self.elapsed_s = elapsed_s
        self.batch_size = len(diagrams)


def fused_multisource(
    graph: CSRGraph,
    seed_sets: Sequence[Sequence[int]],
    *,
    backend: str = "delta-numpy",
) -> FusedSweep:
    """Run one multi-source sweep answering every seed set at once.

    Returns per-request :class:`VoronoiDiagram` slices, each
    bit-identical to ``compute_multisource(graph, seeds,
    backend=...)``'s diagram for that request alone.
    """
    if not seed_sets:
        raise ValueError("seed_sets must be non-empty")
    n = graph.n_vertices
    n_req = len(seed_sets)

    if n_req == 1:
        ms = compute_multisource(graph, seed_sets[0], backend=backend)
        return FusedSweep([ms.diagram], backend, ms.elapsed_s)

    stacked = stack_graphs(graph, n_req)
    all_seeds = np.concatenate(
        [
            np.asarray(sorted(int(s) for s in seeds), dtype=np.int64) + r * n
            for r, seeds in enumerate(seed_sets)
        ]
    )
    t0 = time.perf_counter()
    ms = compute_multisource(stacked, all_seeds, backend=backend)
    elapsed = time.perf_counter() - t0

    diagrams: list[VoronoiDiagram] = []
    for r, seeds in enumerate(seed_sets):
        lo, hi = r * n, (r + 1) * n
        src = ms.src[lo:hi].copy()
        pred = ms.pred[lo:hi].copy()
        dist = ms.dist[lo:hi].copy()
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
    return FusedSweep(diagrams, backend, elapsed)
