"""Solver configuration."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from repro.runtime.cost_model import MachineModel
from repro.runtime.queues import QueueDiscipline

__all__ = ["SolverConfig", "FINGERPRINT_EXCLUSIONS"]

#: The documented exclusion set of :meth:`SolverConfig.fingerprint` —
#: ``{field name: why excluding it is sound}``.  This is *data shared by
#: the runtime and the static checker*: ``fingerprint()`` skips exactly
#: these fields, the ``repro-steiner check`` fingerprint-coverage audit
#: (rules REP201-REP203, :mod:`repro.analysis.rules_fingerprint`) fails
#: if any :class:`SolverConfig` field is neither hashed nor listed here
#: with a reason, and ``tests/test_api.py`` pins the two views equal.
#: A field belongs here iff changing it can never change a correct
#: run's *results* — only how they are computed.
FINGERPRINT_EXCLUSIONS: dict[str, str] = {
    "fault_plan": "only the serve tier consumes it, and its faults never "
    "reach a solve: a torn cache write is quarantined and re-solved, a "
    "dropped connection loses only the response (docs/robustness.md), "
    "so a plan never changes a correct run's output",
}


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the distributed solver (paper §IV defaults).

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
    partition:
        ``"block"`` (contiguous equal-vertex ranges, paper default) or
        ``"hash"``.
    delegate_threshold:
        Degree above which a vertex's adjacency is striped across ranks
        (HavoqGT vertex-cut).  ``None`` disables delegates.
    machine:
        Cost-model constants for the simulation; must be a
        :class:`~repro.runtime.cost_model.MachineModel`.
    engine:
        Runtime engine the message-driven phases execute on — any name
        registered in :mod:`repro.runtime.engines`: ``"async-heap"``
        (asynchronous event engine, the paper-faithful default),
        ``"bsp"`` (per-message bulk-synchronous supersteps, the §IV
        ablation baseline) or ``"bsp-batched"`` (vectorised supersteps —
        identical semantics and message counts to ``"bsp"``, NumPy
        array operations instead of per-message Python).  Every engine
        converges to the identical Steiner tree.
    collect_diagram:
        Attach the full Voronoi diagram arrays to the result (useful for
        inspection/tests; costs O(|V|) memory in the result object).
    max_events:
        Optional hard cap on simulation events per phase (guards runaway
        FIFO configurations in tests).
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
        the per-phase message counts behind Figs. 3-6.  Any registered
        name from :mod:`repro.shortest_paths.backends` (``"dijkstra"``
        or ``"delta-numpy"``) instead computes the identical
        ``(src, pred, dist)`` fixpoint with that sequential kernel — the
        fast path for workloads that need the tree, not the message
        trace.  The phase is then not simulated: its
        ``sim_time`` is ``0.0`` and it sends no messages.
    fault_plan:
        Deterministic chaos: a :class:`repro.faults.FaultPlan` whose
        ``corrupt_cache`` / ``drop_connection`` actions the serve tier
        injects at their scheduled points (``None`` = the
        ``REPRO_FAULT_PLAN`` env hook, which is itself usually unset).
        Testing machinery — the solver never reads it, so a fault plan
        never changes a correct run's output.
    """

    n_ranks: int = 16
    discipline: QueueDiscipline = QueueDiscipline.PRIORITY
    partition: str = "block"
    delegate_threshold: Optional[int] = None
    machine: MachineModel = field(default_factory=MachineModel)
    engine: str = "async-heap"
    collect_diagram: bool = False
    max_events: Optional[int] = None
    collective_chunk_elements: Optional[int] = None
    aggregate_remote_messages: bool = False
    voronoi_backend: Optional[str] = None
    fault_plan: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.partition not in ("block", "hash"):
            raise ValueError("partition must be 'block' or 'hash'")
        if (
            self.collective_chunk_elements is not None
            and self.collective_chunk_elements < 1
        ):
            raise ValueError("collective_chunk_elements must be >= 1")
        if not isinstance(self.machine, MachineModel):
            # fingerprint() flattens the model's dataclass fields, so a
            # stray value would only fail later, far from its source
            raise TypeError(
                f"machine must be a MachineModel, got {type(self.machine).__name__}"
            )
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
        hashes — every dataclass field except the documented
        :data:`FINGERPRINT_EXCLUSIONS`.

        Exposed separately so the fingerprint-coverage audit (REP202)
        and the regression tests can verify *what* is hashed without
        reversing the digest: a new ``SolverConfig`` field is covered
        automatically, and can only leave the material by being added to
        the exclusion dict with a written justification.
        """
        material: dict[str, Any] = {}
        for f in fields(self):
            if f.name in FINGERPRINT_EXCLUSIONS:
                continue
            value = getattr(self, f.name)
            if f.name == "machine":
                value = {
                    mf.name: getattr(value, mf.name) for mf in fields(value)
                }
            elif isinstance(value, QueueDiscipline):
                value = value.value
            material[f.name] = value
        return material

    def fingerprint(self) -> str:
        """Stable short hash over every behaviour-affecting field.

        This is the ``config_fingerprint`` component of the serve/cache
        key ``(graph_hash, frozenset(seeds), config_fingerprint)``: two
        configurations share a fingerprint iff a cached result computed
        under one is valid for the other.  Every dataclass field except
        the documented :data:`FINGERPRINT_EXCLUSIONS` participates — the
        serve-tier ``fault_plan`` never changes a correct run's results,
        so results cached under one plan are valid under any other.  The
        machine model is flattened into its constants, values are
        canonicalised (enum -> value) and serialised with sorted keys, so
        the digest is independent of field ordering and of dict-insertion
        order.
        """
        blob = json.dumps(self.fingerprint_material(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
