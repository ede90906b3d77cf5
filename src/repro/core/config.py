"""Solver configuration."""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, fields
from typing import Any, Optional

import numpy as np

from repro.runtime.queues import QueueDiscipline

__all__ = ["SolverConfig"]

#: fields that must hold a real bool: a string such as ``"false"`` is
#: truthy, so it would silently switch the option on
_BOOL_FIELDS = ("collect_diagram", "aggregate_remote_messages")
#: integer fields that may also be ``None``; like ``n_ranks`` they are
#: stored as ``int``, so a NumPy integer hashes like its value
_OPTIONAL_INT_FIELDS = ("delegate_threshold", "collective_chunk_elements")


def _as_int(name: str, value: Any) -> int:
    """``value`` as a Python ``int``; a bool or a non-integer raises."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the distributed solver (paper §IV defaults).

    Each field is an axis of the paper's evaluation: ranks (Fig. 3),
    queue discipline (Figs. 5-7), delegates (§IV), chunked collectives
    (§V-F) and aggregation, plus the engine or backend that runs them.
    The graph is always split into equal-vertex-share blocks
    (:func:`~repro.runtime.partition.block_partition`) and the cost
    model always uses the default
    :class:`~repro.runtime.cost_model.MachineModel`.

    The bool fields accept only ``bool`` (or ``np.bool_``) and the
    integer fields only integers (NumPy integers included, bools not);
    both are stored as plain Python values, and anything else raises
    :class:`TypeError` at construction.

    Attributes
    ----------
    n_ranks:
        Simulated MPI world size.  The paper runs 16 ranks per node; the
        harness maps "node counts" to ranks with that factor where a
        figure is keyed by nodes.
    discipline:
        Pending-message scheduling: :attr:`QueueDiscipline.PRIORITY`
        (the paper's optimisation, default) or ``FIFO`` (HavoqGT default,
        the §V-C baseline).
    delegate_threshold:
        Degree above which a vertex's adjacency is striped across ranks
        (HavoqGT vertex-cut).  ``None`` disables delegates.
    engine:
        Runtime engine the message-driven phases execute on — a key of
        :data:`repro.runtime.engines.ENGINES`: ``"async-heap"``
        (asynchronous event engine, the paper-faithful default),
        ``"bsp"`` (per-message bulk-synchronous supersteps, the §IV
        ablation baseline) or ``"bsp-batched"`` (vectorised supersteps —
        identical semantics and message counts to ``"bsp"``, NumPy
        array operations instead of per-message Python).  Every engine
        converges to the identical Steiner tree.
    collect_diagram:
        Attach the full Voronoi diagram arrays to the result (useful for
        inspection/tests; costs O(|V|) memory in the result object).
    collective_chunk_elements:
        When set, the ``EN`` allreduce runs in chunks of this many
        elements instead of one shot — the paper's §V-F memory/runtime
        trade-off ("multiple collective operations ... on smaller
        chunks, e.g., 500K or 1M items per chunk, at the expense of
        runtime performance").  Bounds the peak communication buffer in
        the memory model and adds latency terms to the collective
        phases.  ``None`` (default) = single-shot, as in the paper's
        headline runs.
    aggregate_remote_messages:
        HavoqGT-style message aggregation: messages a visit emits to the
        same remote rank share one wire transfer, cutting per-send CPU
        overhead (biggest win when hub vertices fan out).  Off by
        default so the headline numbers model unaggregated visitors;
        the aggregation ablation turns it on.
    voronoi_backend:
        ``None`` (default) simulates the Voronoi Cell phase on the
        message-driven engine — the paper-faithful path that produces
        the per-phase message counts behind Figs. 3-6.  A key of
        :data:`repro.shortest_paths.backends.BACKENDS` (``"dijkstra"``
        or ``"delta-numpy"``) instead computes the identical
        ``(src, pred, dist)`` fixpoint with that sequential kernel — the
        fast path for workloads that need the tree, not the message
        trace.  The phase is then not simulated: its
        ``sim_time`` is ``0.0`` and it sends no messages.
    """

    n_ranks: int = 16
    discipline: QueueDiscipline = QueueDiscipline.PRIORITY
    delegate_threshold: Optional[int] = None
    engine: str = "async-heap"
    collect_diagram: bool = False
    collective_chunk_elements: Optional[int] = None
    aggregate_remote_messages: bool = False
    voronoi_backend: Optional[str] = None

    def __post_init__(self) -> None:
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise TypeError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        object.__setattr__(self, "n_ranks", _as_int("n_ranks", self.n_ranks))
        for name in _OPTIONAL_INT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_int(name, value))
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if (
            self.collective_chunk_elements is not None
            and self.collective_chunk_elements < 1
        ):
            raise ValueError("collective_chunk_elements must be >= 1")
        object.__setattr__(self, "discipline", QueueDiscipline(self.discipline))
        from repro.runtime.engines import get_engine

        get_engine(self.engine)  # fail fast on typos
        if self.voronoi_backend is not None:
            # fail fast on typos rather than deep inside solve()
            from repro.shortest_paths.backends import get_backend

            get_backend(self.voronoi_backend)

    # ------------------------------------------------------------------ #
    def fingerprint_material(self) -> dict[str, Any]:
        """The exact ``{field: canonical value}`` dict the fingerprint
        hashes — every dataclass field, so a new ``SolverConfig`` field
        is covered automatically.

        Exposed separately so tests can verify *what* is hashed without
        reversing the digest.
        """
        material: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, QueueDiscipline):
                value = value.value
            material[f.name] = value
        return material

    def fingerprint(self) -> str:
        """Stable short hash over every field.

        This is the ``config_fingerprint`` component of the serve/cache
        key ``(graph_hash, frozenset(seeds), config_fingerprint)``: two
        configurations share a fingerprint iff a cached result computed
        under one is valid for the other.  Every dataclass field
        participates.  Values are canonicalised (enum -> value) and
        serialised with sorted keys, so the digest is independent of
        field ordering and of dict-insertion order.
        """
        blob = json.dumps(self.fingerprint_material(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
