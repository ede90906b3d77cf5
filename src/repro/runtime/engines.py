"""The runtime engines, by name.

The mirror image of :mod:`repro.shortest_paths.backends`, one layer up:
where that table swaps the *sequential kernel* of the Voronoi sweep,
this one swaps the *simulated runtime* every message-driven phase runs
on.  The solver, the experiment harness, the CLI and the benchmarks all
resolve names here, so a single ``engine="..."`` knob switches the
executor everywhere at once.

Contract
--------
Every entry of :data:`ENGINES` is an
:class:`~repro.runtime.engine.EngineBase` subclass, built as
``cls(partition, machine=None, discipline=..., *, aggregate_remote=False)``
— only the asynchronous engine reads ``aggregate_remote``, so one
:func:`make_engine` call site serves all engines — and exposing
``run_phase(name, program, initial_messages, *, max_events=None)``,
which runs a :class:`~repro.runtime.engine.VertexProgram` to quiescence
and returns a :class:`~repro.runtime.engine.PhaseStats`.  The shared
:class:`~repro.runtime.engine.EngineBase` state records each phase in
``phases`` and advances the simulated ``clock``.

Parity guarantee (pinned by ``tests/test_engines.py`` and
``tests/test_engine_conformance.py``): every engine drives a program to
the **identical converged state** — for the solver, the identical
``(src, dist)`` fixpoint and hence the bit-identical Steiner tree.  The
bulk-synchronous engines (``bsp``, ``bsp-batched``) additionally
produce **identical message counts, visit counts and superstep
counts** — they execute the same supersteps, one per-message, one
vectorised.  Message counts *across* execution models legitimately
differ — scheduling order changes how many wasted relaxations occur,
which is exactly the effect the paper's Figs. 5-6 measure — so
cross-model count equality is a measured quantity (the async-vs-BSP
ablation), not an invariant.

The engines
-----------
``async-heap``
    The asynchronous discrete-event executor
    (:class:`~repro.runtime.engine.AsyncEngine`) — the HavoqGT stand-in
    and the paper-faithful default.
``bsp``
    Per-message bulk-synchronous supersteps
    (:class:`~repro.runtime.engine.BSPEngine`) — the Pregel/Giraph
    execution model the paper contrasts against.
``bsp-batched``
    Vectorised supersteps
    (:class:`~repro.runtime.engine_batched.BSPBatchedEngine`): each
    superstep is NumPy array operations over the partitioned CSR
    instead of one Python callback per message — same semantics as
    ``bsp``, order-of-magnitude less interpreter overhead.

>>> list(ENGINES)
['async-heap', 'bsp', 'bsp-batched']
"""

from __future__ import annotations

from repro.runtime.cost_model import MachineModel
from repro.runtime.engine import AsyncEngine, BSPEngine, EngineBase
from repro.runtime.engine_batched import BSPBatchedEngine
from repro.runtime.partition import PartitionedGraph
from repro.runtime.queues import QueueDiscipline

__all__ = ["ENGINES", "get_engine", "make_engine"]

#: engine name -> engine class; the paper-faithful default comes first
ENGINES: dict[str, type[EngineBase]] = {
    "async-heap": AsyncEngine,
    "bsp": BSPEngine,
    "bsp-batched": BSPBatchedEngine,
}


def get_engine(name: str) -> type[EngineBase]:
    """Resolve an engine name; raises :class:`ValueError` when unknown."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown runtime engine {name!r}; available: {list(ENGINES)}"
        ) from None


def make_engine(
    name: str,
    partition: PartitionedGraph,
    machine: MachineModel | None = None,
    discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    *,
    aggregate_remote: bool = False,
) -> EngineBase:
    """Instantiate the named engine over a partitioned graph.

    ``aggregate_remote`` turns on HavoqGT-style message aggregation in
    the asynchronous engine; the bulk-synchronous engines accept and
    ignore it, so callers can thread it unconditionally.
    """
    return get_engine(name)(
        partition, machine, discipline, aggregate_remote=aggregate_remote
    )
