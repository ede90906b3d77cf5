"""Structural contracts of the two plug-in registries, as ``typing.Protocol``s.

The engine registry (:mod:`repro.runtime.engines`) and the backend
registry (:mod:`repro.shortest_paths.backends`) both promise that every
registered entry is interchangeable: any engine drives a program to the
identical converged state, any backend produces the bit-identical
Voronoi diagram.  That guarantee only holds if each entry actually
implements the full structural surface the callers rely on —
``run_phase`` returning :class:`PhaseStats`, diagram results carrying
all four arrays.

This module states those surfaces *once*, as Protocols, so they are
verified twice:

* **statically** — mypy checks the concrete engine classes and backend
  callables against the Protocols (the ``TYPE_CHECKING`` assignments at
  the bottom of the registry modules);
* **at review time** — the ``repro-steiner check`` registry-conformance
  rules (``REP501``/``REP502``/``REP503``,
  :mod:`repro.analysis.rules_contracts`) instantiate every registered
  entry and verify the members listed in :data:`ENGINE_CONTRACT` /
  :data:`DIAGRAM_CONTRACT` / :data:`MULTISOURCE_RESULT_CONTRACT` are
  present.

The ``*_CONTRACT`` tuples are the runtime mirror of each Protocol's
member list — kept adjacent so adding a member to one without the other
is a one-line review catch.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # heavy imports only for annotations
    import numpy as np

    from repro.graph.csr import CSRGraph
    from repro.runtime.engine import PhaseStats
    from repro.shortest_paths.voronoi import VoronoiDiagram

__all__ = [
    "DIAGRAM_CONTRACT",
    "ENGINE_CONTRACT",
    "MULTISOURCE_RESULT_CONTRACT",
    "DiagramLike",
    "MultiSourceBackend",
    "RuntimeEngine",
]


@runtime_checkable
class RuntimeEngine(Protocol):
    """The executor surface every registered engine factory must return.

    Mirrors :class:`repro.runtime.engine.EngineBase`; consumers (the
    solver, ``run_phase_with``, the benchmarks) use exactly these
    members.
    """

    phases: list["PhaseStats"]
    clock: float

    def run_phase(
        self,
        name: str,
        program: Any,
        initial_messages: Iterable[Tuple[int, Tuple[Any, ...]]],
        *,
        max_events: Optional[int] = None,
    ) -> "PhaseStats": ...

    def add_analytic_phase(
        self,
        name: str,
        sim_time: float,
        *,
        n_messages_remote: int = 0,
        bytes_sent: int = 0,
    ) -> "PhaseStats": ...

    def total_time(self) -> float: ...


#: Runtime mirror of :class:`RuntimeEngine` for the REP501 checker rule.
ENGINE_CONTRACT: tuple[str, ...] = (
    "run_phase",
    "add_analytic_phase",
    "total_time",
    "phases",
    "clock",
)


@runtime_checkable
class MultiSourceBackend(Protocol):
    """A registered multi-source shortest-path kernel.

    ``(graph, seeds, **options) -> VoronoiDiagram`` whose result is the
    unique lexicographic ``(dist, owner)`` fixpoint with canonical
    predecessors — bit-identical across every registered backend.
    """

    def __call__(
        self, graph: "CSRGraph", seeds: Sequence[int], /, **options: Any
    ) -> "VoronoiDiagram": ...


@runtime_checkable
class DiagramLike(Protocol):
    """The four arrays every backend's diagram must expose."""

    seeds: "np.ndarray"
    src: "np.ndarray"
    pred: "np.ndarray"
    dist: "np.ndarray"


#: Runtime mirror of :class:`DiagramLike` for the REP502 checker rule.
DIAGRAM_CONTRACT: tuple[str, ...] = ("seeds", "src", "pred", "dist")


#: Members of :class:`repro.shortest_paths.backends.MultiSourceResult`
#: that downstream consumers (benchmarks, serve, CLI listings) rely on;
#: verified by the REP503 checker rule.
MULTISOURCE_RESULT_CONTRACT: tuple[str, ...] = (
    "diagram",
    "backend",
    "elapsed_s",
    "seeds",
    "src",
    "pred",
    "dist",
    "agrees_with",
)
