"""The multi-source shortest-path backends, by name.

The sequential solver, the experiment harness and the CLI run the
Voronoi-cell sweep through this table, and
:attr:`SolverConfig.voronoi_backend <repro.core.config.SolverConfig>`
picks the kernel that dominates the paper's runtime (§II, Table 1).

Contract
--------
Every entry of :data:`BACKENDS` is a callable
``(graph, seeds) -> VoronoiDiagram`` whose result satisfies, for every
backend identically:

* ``dist[v]`` — the exact multi-source distance (``INF`` unreachable);
* ``src[v]``  — the *smallest* seed id among all shortest paths to
  ``v`` (the lexicographic ``(dist, owner)`` fixpoint — the library's
  deterministic tie-break rule);
* ``pred``    — the canonical predecessor assignment of
  :func:`~repro.shortest_paths.voronoi.canonicalize_predecessors`
  (order-independent, hence bit-for-bit comparable across backends).

:func:`compute_multisource` runs the named backend and returns its
diagram.  Cross-backend bit-equality is enforced by the property tests
in ``tests/test_backends.py``, over every entry of the table.

The backends
------------
``dijkstra``
    Heap-based multi-source Dijkstra — the pure-Python reference
    (:func:`~repro.shortest_paths.voronoi.compute_voronoi_cells`).
``delta-numpy``
    Vectorised bucket-synchronous Δ-stepping on the raw CSR arrays
    (:mod:`repro.shortest_paths.vectorized`) — the fast path.

The SPFA and per-edge Δ-stepping kernels of the paper's §III ablation
(:mod:`repro.shortest_paths.multisource`) are not in the table: the
ablation calls them directly.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.graph.csr import CSRGraph
from repro.shortest_paths.vectorized import compute_voronoi_cells_delta_numpy
from repro.shortest_paths.voronoi import (
    VoronoiDiagram,
    canonicalize_predecessors,
    compute_voronoi_cells,
)

__all__ = ["BACKENDS", "compute_multisource", "get_backend"]

BackendFn = Callable[[CSRGraph, Sequence[int]], VoronoiDiagram]


def _dijkstra_backend(graph: CSRGraph, seeds: Sequence[int]) -> VoronoiDiagram:
    """Heap-based multi-source Dijkstra, the pure-Python reference."""
    vd = compute_voronoi_cells(graph, seeds)
    vd.pred = canonicalize_predecessors(graph, vd.src, vd.dist)
    return vd


#: backend name -> sweep; the reference every other entry must match
#: bit-for-bit comes first
BACKENDS: dict[str, BackendFn] = {
    "dijkstra": _dijkstra_backend,
    "delta-numpy": compute_voronoi_cells_delta_numpy,
}


def get_backend(name: str) -> BackendFn:
    """Resolve a backend name; raises :class:`ValueError` when unknown."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown shortest-path backend {name!r}; available: {list(BACKENDS)}"
        ) from None


def compute_multisource(
    graph: CSRGraph,
    seeds: Sequence[int],
    *,
    backend: str = "dijkstra",
) -> VoronoiDiagram:
    """Run the multi-source sweep under the named backend.

    All backends return the identical diagram (the table's contract);
    the choice is purely a performance decision.
    """
    return get_backend(backend)(graph, seeds)
