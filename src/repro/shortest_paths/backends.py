"""Pluggable multi-source shortest-path backends.

The sequential solver, the experiment harness and the CLI run the
Voronoi-cell sweep through this registry, and
:attr:`SolverConfig.voronoi_backend <repro.core.config.SolverConfig>`
picks the kernel that dominates the paper's runtime (§II, Table 1).

Contract
--------
A backend is a callable ``(graph, seeds, **options) -> VoronoiDiagram``
whose result satisfies, for every registered backend identically:

* ``dist[v]`` — the exact multi-source distance (``INF`` unreachable);
* ``src[v]``  — the *smallest* seed id among all shortest paths to
  ``v`` (the lexicographic ``(dist, owner)`` fixpoint — the library's
  deterministic tie-break rule);
* ``pred``    — the canonical predecessor assignment of
  :func:`~repro.shortest_paths.voronoi.canonicalize_predecessors`
  (order-independent, hence bit-for-bit comparable across backends).

:func:`compute_multisource` wraps the call and returns a
:class:`MultiSourceResult` carrying the diagram plus provenance
(backend name, wall time) for benchmarks and reports.  Cross-backend
bit-equality is enforced by the property tests in
``tests/test_backends.py`` and re-checked at runtime by
:func:`verify_backends_agree`.

Registered backends
-------------------
``dijkstra``
    Heap-based multi-source Dijkstra — the pure-Python reference
    (:func:`~repro.shortest_paths.voronoi.compute_voronoi_cells`).
``delta-numpy``
    Vectorised bucket-synchronous Δ-stepping on the raw CSR arrays
    (:mod:`repro.shortest_paths.vectorized`) — the fast path.

The SPFA and per-edge Δ-stepping kernels of the paper's §III ablation
(:mod:`repro.shortest_paths.multisource`) are not registered: the
ablation calls them directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.shortest_paths.voronoi import (
    VoronoiDiagram,
    canonicalize_predecessors,
    compute_voronoi_cells,
)

__all__ = [
    "DEFAULT_BACKEND",
    "MultiSourceResult",
    "available_backends",
    "backend_help",
    "compute_multisource",
    "get_backend",
    "register_backend",
    "verify_backends_agree",
]

BackendFn = Callable[..., VoronoiDiagram]

#: the reference backend every other one must match bit-for-bit
DEFAULT_BACKEND = "dijkstra"

_REGISTRY: dict[str, BackendFn] = {}
_HELP: dict[str, str] = {}


@dataclass(frozen=True)
class MultiSourceResult:
    """A Voronoi diagram plus provenance of the backend that built it.

    Attributes
    ----------
    diagram:
        The ``(seeds, src, pred, dist)`` arrays; ``pred`` is canonical,
        so two results from different backends compare equal iff the
        backends agree.
    backend:
        Registry name of the kernel that produced the diagram.
    elapsed_s:
        Wall-clock seconds spent inside the backend call.
    """

    diagram: VoronoiDiagram
    backend: str
    elapsed_s: float

    @property
    def seeds(self) -> np.ndarray:
        return self.diagram.seeds

    @property
    def src(self) -> np.ndarray:
        return self.diagram.src

    @property
    def pred(self) -> np.ndarray:
        return self.diagram.pred

    @property
    def dist(self) -> np.ndarray:
        return self.diagram.dist

    def agrees_with(self, other: "MultiSourceResult") -> bool:
        """Bit-for-bit equality of the two diagrams (the contract)."""
        return (
            np.array_equal(self.dist, other.dist)
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.pred, other.pred)
        )


def register_backend(
    name: str, help_text: str = ""
) -> Callable[[BackendFn], BackendFn]:
    """Decorator registering ``fn`` as multi-source backend ``name``.

    Re-registering a name overwrites it (deliberate: lets tests and
    downstream users shadow a backend with an instrumented variant).
    """

    def deco(fn: BackendFn) -> BackendFn:
        _REGISTRY[name] = fn
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        _HELP[name] = help_text or (doc_lines[0] if doc_lines else name)
        return fn

    return deco


def available_backends() -> list[str]:
    """Registered backend names, reference first, rest alphabetical."""
    rest = sorted(k for k in _REGISTRY if k != DEFAULT_BACKEND)
    return [DEFAULT_BACKEND, *rest] if DEFAULT_BACKEND in _REGISTRY else rest


def backend_help() -> dict[str, str]:
    """``{name: one-line description}`` for CLI listings."""
    return {name: _HELP.get(name, "") for name in available_backends()}


def get_backend(name: str) -> BackendFn:
    """Resolve a backend name; raises :class:`ValueError` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown shortest-path backend {name!r}; "
            f"available: {available_backends()}"
        ) from None


def compute_multisource(
    graph: CSRGraph,
    seeds: Sequence[int],
    *,
    backend: str = DEFAULT_BACKEND,
    **options: Any,
) -> MultiSourceResult:
    """Run the multi-source sweep under the chosen backend.

    All backends return the identical diagram (the registry contract);
    the choice is purely a performance decision.
    """
    fn = get_backend(backend)
    t0 = time.perf_counter()
    diagram = fn(graph, seeds, **options)
    return MultiSourceResult(
        diagram=diagram, backend=backend, elapsed_s=time.perf_counter() - t0
    )


def verify_backends_agree(
    graph: CSRGraph,
    seeds: Sequence[int],
    backends: Sequence[str] | None = None,
) -> MultiSourceResult:
    """Run several backends and assert their diagrams are identical.

    Returns the reference result.  Used by the equivalence tests and as
    a belt-and-braces check in the benchmark harness before speedups are
    recorded.
    """
    names = list(backends) if backends is not None else available_backends()
    results = [compute_multisource(graph, seeds, backend=b) for b in names]
    ref = results[0]
    for res in results[1:]:
        if not ref.agrees_with(res):
            raise AssertionError(
                f"backend {res.backend!r} disagrees with {ref.backend!r}"
            )
    return ref


# --------------------------------------------------------------------- #
# built-in registrations
# --------------------------------------------------------------------- #
@register_backend(
    "dijkstra", "heap-based multi-source Dijkstra (pure-Python reference)"
)
def _dijkstra_backend(graph: CSRGraph, seeds: Sequence[int]) -> VoronoiDiagram:
    vd = compute_voronoi_cells(graph, seeds)
    vd.pred = canonicalize_predecessors(graph, vd.src, vd.dist)
    return vd


@register_backend(
    "delta-numpy",
    "vectorised bucket-synchronous Delta-stepping (NumPy relaxations)",
)
def _delta_numpy_backend(
    graph: CSRGraph, seeds: Sequence[int], delta: int | None = None
) -> VoronoiDiagram:
    from repro.shortest_paths.vectorized import compute_voronoi_cells_delta_numpy

    return compute_voronoi_cells_delta_numpy(graph, seeds, delta)


if TYPE_CHECKING:
    from repro.contracts import DiagramLike

    # mypy structurally verifies the diagram type against the registry
    # contract (repro.contracts.DiagramLike); the arrays every backend
    # returns are compared bit-for-bit by tests/test_backends.py.
    _DIAGRAM_CONFORMANCE: type[DiagramLike] = VoronoiDiagram
