"""Pluggable multi-source shortest-path backends.

Every consumer of the Voronoi-cell sweep — the sequential solver, the
baselines, the experiment harness, the CLI — funnels through this
registry, so a single ``backend="..."`` knob switches the kernel that
dominates the paper's runtime (§II, Table 1) everywhere at once.

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
    (:mod:`repro.shortest_paths.vectorized`) — the fast default for
    large graphs.
``scipy``
    ``scipy.sparse.csgraph``-accelerated sweep
    (:mod:`repro.shortest_paths.scipy_backend`); optional, registered
    only when SciPy is installed.  Registration looks SciPy up without
    importing it; the first ``scipy`` sweep pays the import.
``spfa`` / ``delta-python``
    The queue-based Bellman–Ford and per-edge Δ-stepping ablation
    kernels (:mod:`repro.shortest_paths.multisource`).
"""

from __future__ import annotations

import importlib.util
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
    "backend_availability",
    "backend_help",
    "compute_multisource",
    "get_backend",
    "register_backend",
    "register_unavailable_backend",
    "verify_backends_agree",
]

BackendFn = Callable[..., VoronoiDiagram]

#: the reference backend every other one must match bit-for-bit
DEFAULT_BACKEND = "dijkstra"

_REGISTRY: dict[str, BackendFn] = {}
_HELP: dict[str, str] = {}
#: name -> import-failure reason of an optional backend that could not
#: register — the listing-only ``unavailable`` entries behind
#: ``repro-steiner backends``
_UNAVAILABLE: dict[str, str] = {}


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


def register_unavailable_backend(
    name: str, help_text: str, reason: str
) -> None:
    """Record an optional backend that could not register at all.

    The name stays *out* of the callable registry (``get_backend``
    keeps failing fast), but :func:`backend_availability` and the CLI
    listing show the entry with its import-failure reason instead of
    silently omitting it.
    """
    _HELP[name] = help_text
    _UNAVAILABLE[name] = reason


def available_backends() -> list[str]:
    """Registered backend names, reference first, rest alphabetical."""
    rest = sorted(k for k in _REGISTRY if k != DEFAULT_BACKEND)
    return [DEFAULT_BACKEND, *rest] if DEFAULT_BACKEND in _REGISTRY else rest


def backend_help() -> dict[str, str]:
    """``{name: one-line description}`` for CLI listings."""
    return {name: _HELP.get(name, "") for name in available_backends()}


def backend_availability() -> dict[str, dict]:
    """Per-entry availability: ``{name: {status, reason, help}}``.

    Registered (callable) entries first, in :func:`available_backends`
    order, with status ``"available"``; ``"unavailable"`` listing-only
    entries (optional backends whose import failed outright) follow
    alphabetically, ``reason`` saying why.
    """
    out = {
        name: {"status": "available", "reason": None, "help": help_text}
        for name, help_text in backend_help().items()
    }
    for name in sorted(k for k in _UNAVAILABLE if k not in _REGISTRY):
        out[name] = {
            "status": "unavailable",
            "reason": _UNAVAILABLE[name],
            "help": _HELP.get(name, ""),
        }
    return out


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


@register_backend(
    "spfa", "queue-based Bellman-Ford (the distributed kernel's basis)"
)
def _spfa_backend(graph: CSRGraph, seeds: Sequence[int]) -> VoronoiDiagram:
    from repro.shortest_paths.multisource import compute_voronoi_cells_spfa

    return compute_voronoi_cells_spfa(graph, seeds)


@register_backend(
    "delta-python", "per-edge Delta-stepping (sequential ablation kernel)"
)
def _delta_python_backend(
    graph: CSRGraph, seeds: Sequence[int], delta: int | None = None
) -> VoronoiDiagram:
    from repro.shortest_paths.multisource import (
        compute_voronoi_cells_delta_stepping,
    )

    return compute_voronoi_cells_delta_stepping(graph, seeds, delta)


_SCIPY_HELP = (
    "scipy.sparse.csgraph compiled multi-source Dijkstra "
    "(int64-exact fallback for astronomical weights)"
)

# look SciPy up without importing it: the import alone would about
# double the memory and start-up time of `import repro.api`
if importlib.util.find_spec("scipy") is not None:

    @register_backend("scipy", _SCIPY_HELP)
    def _scipy_backend(graph: CSRGraph, seeds: Sequence[int]) -> VoronoiDiagram:
        """SciPy sweep, guarded for exactness.

        SciPy computes distances in float64, which is exact only while
        every path sum stays below 2**53.  ``n * max_weight`` bounds any
        shortest-path sum; past that bound the rounded distances break
        the tight-edge equality the owner/predecessor passes rely on
        (and hence the registry's bit-for-bit contract), so we delegate
        to the integer-exact vectorised kernel instead.
        """
        if graph.n_arcs:
            path_bound = int(graph.weights.max()) * max(1, graph.n_vertices - 1)
            if path_bound >= 2**53:
                from repro.shortest_paths.vectorized import (
                    compute_voronoi_cells_delta_numpy,
                )

                return compute_voronoi_cells_delta_numpy(graph, seeds)
        from repro.shortest_paths.scipy_backend import compute_voronoi_cells_scipy

        return compute_voronoi_cells_scipy(graph, seeds)

else:
    register_unavailable_backend(
        "scipy", _SCIPY_HELP, "ModuleNotFoundError: No module named 'scipy'"
    )


if TYPE_CHECKING:
    from repro.contracts import DiagramLike

    # mypy structurally verifies the diagram type against the registry
    # contract (repro.contracts.DiagramLike); the REP502 checker rule is
    # the runtime twin of this assignment.
    _DIAGRAM_CONFORMANCE: type[DiagramLike] = VoronoiDiagram
