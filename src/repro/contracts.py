"""Structural contracts of the two plug-in registries, as ``typing.Protocol``s.

The engine registry (:mod:`repro.runtime.engines`) and the backend
registry (:mod:`repro.shortest_paths.backends`) both promise that every
registered entry is interchangeable: any engine drives a program to the
identical converged state, any backend produces the bit-identical
Voronoi diagram.  This module states the surface callers rely on —
``run_phase`` returning :class:`PhaseStats`, diagram results carrying
all four arrays — once, as Protocols.

mypy checks the concrete engine classes and the diagram type against
them through the ``TYPE_CHECKING`` conformance assignments at the
bottom of the registry modules.  At run time, tier-1 runs every
registered entry: ``tests/test_engine_conformance.py`` drives each
engine and ``tests/test_backends.py`` each backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional, Protocol, Tuple

if TYPE_CHECKING:  # heavy imports only for annotations
    import numpy as np

    from repro.runtime.engine import PhaseStats

__all__ = [
    "DiagramLike",
    "RuntimeEngine",
]


class RuntimeEngine(Protocol):
    """The executor surface every registered engine factory must return.

    ``run_phase`` is the one member consumers (the solver,
    ``run_phase_with``, the benchmarks) call.
    """

    def run_phase(
        self,
        name: str,
        program: Any,
        initial_messages: Iterable[Tuple[int, Tuple[Any, ...]]],
        *,
        max_events: Optional[int] = None,
    ) -> "PhaseStats": ...


class DiagramLike(Protocol):
    """The four arrays every backend's diagram must expose."""

    seeds: "np.ndarray"
    src: "np.ndarray"
    pred: "np.ndarray"
    dist: "np.ndarray"
