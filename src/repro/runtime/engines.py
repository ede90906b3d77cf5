"""Pluggable runtime-engine registry.

The mirror image of :mod:`repro.shortest_paths.backends`, one layer up:
where that registry swaps the *sequential kernel* of the Voronoi sweep,
this one swaps the *simulated runtime* every message-driven phase runs
on.  Every consumer — the distributed solver, the experiment harness,
the CLI, the benchmarks — funnels through this module, so a single
``engine="..."`` knob switches the executor everywhere at once.

Contract
--------
An engine is built by a registered factory
``(partition, machine=None, discipline=..., *, aggregate_remote=False)``
— factories must accept (and may ignore) the keyword knob, so a single
:func:`make_engine` call site serves all engines — and exposes
``run_phase(name, program, initial_messages, *, max_events=None)``,
which runs a :class:`~repro.runtime.engine.VertexProgram` to quiescence
and returns a :class:`~repro.runtime.engine.PhaseStats`
(:class:`repro.contracts.RuntimeEngine`).  The
:class:`~repro.runtime.engine.EngineBase` state every engine shares
records each phase in ``phases`` and advances the simulated ``clock``.

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

Registered engines
------------------
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

>>> available_engines()
['async-heap', 'bsp', 'bsp-batched']
>>> available_engines()[0] == DEFAULT_ENGINE == "async-heap"
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.cost_model import MachineModel
from repro.runtime.engine import AsyncEngine, BSPEngine, EngineBase, PhaseStats
from repro.runtime.engine_batched import BSPBatchedEngine
from repro.runtime.partition import PartitionedGraph
from repro.runtime.queues import QueueDiscipline

__all__ = [
    "DEFAULT_ENGINE",
    "EngineResult",
    "available_engines",
    "engine_help",
    "get_engine",
    "make_engine",
    "register_engine",
    "run_phase_with",
    "verify_engines_agree",
]

EngineFactory = Callable[..., EngineBase]

#: the paper-faithful executor every other engine is compared against
DEFAULT_ENGINE = "async-heap"

_REGISTRY: dict[str, EngineFactory] = {}
_HELP: dict[str, str] = {}


@dataclass(frozen=True)
class EngineResult:
    """One phase run plus provenance of the engine that executed it.

    Attributes
    ----------
    stats:
        The recorded :class:`~repro.runtime.engine.PhaseStats` (simulated
        time, visit and local/remote message counts, busy time).
    engine:
        Registry name of the engine that ran the phase.
    elapsed_s:
        Wall-clock seconds spent inside ``run_phase`` — the quantity the
        engine benchmarks compare (simulated time is a *model* output
        and near-identical across the BSP family by construction).
    n_supersteps:
        Superstep count for the bulk-synchronous engines, ``None`` for
        the asynchronous one.
    """

    stats: PhaseStats
    engine: str
    elapsed_s: float
    n_supersteps: Optional[int] = None


def register_engine(
    name: str, help_text: str = ""
) -> Callable[[EngineFactory], EngineFactory]:
    """Decorator registering ``factory`` as runtime engine ``name``.

    Re-registering a name overwrites it (deliberate: lets tests and
    downstream users shadow an engine with an instrumented variant).
    """

    def deco(factory: EngineFactory) -> EngineFactory:
        _REGISTRY[name] = factory
        doc_lines = (factory.__doc__ or "").strip().splitlines()
        _HELP[name] = help_text or (doc_lines[0] if doc_lines else name)
        return factory

    return deco


def available_engines() -> list[str]:
    """Registered engine names, default first, rest alphabetical."""
    rest = sorted(k for k in _REGISTRY if k != DEFAULT_ENGINE)
    return [DEFAULT_ENGINE, *rest] if DEFAULT_ENGINE in _REGISTRY else rest


def engine_help() -> dict[str, str]:
    """``{name: one-line description}`` for CLI listings."""
    return {name: _HELP.get(name, "") for name in available_engines()}


def get_engine(name: str) -> EngineFactory:
    """Resolve an engine name; raises :class:`ValueError` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown runtime engine {name!r}; "
            f"available: {available_engines()}"
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


def run_phase_with(
    engine_name: str,
    partition: PartitionedGraph,
    program: Any,
    initial_messages: Iterable[Tuple[int, Tuple]],
    *,
    machine: MachineModel | None = None,
    discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    name: str = "phase",
    max_events: Optional[int] = None,
) -> EngineResult:
    """Run one program phase under the chosen engine.

    The program converges to the identical state under every engine (the
    registry contract); the choice trades execution model and wall-clock
    speed.  Returns the stats plus provenance, for benchmarks and the
    ``repro-steiner engines --bench`` report.
    """
    engine = make_engine(engine_name, partition, machine, discipline)
    t0 = time.perf_counter()
    stats = engine.run_phase(name, program, initial_messages, max_events=max_events)
    elapsed = time.perf_counter() - t0
    return EngineResult(
        stats=stats,
        engine=engine_name,
        elapsed_s=elapsed,
        n_supersteps=getattr(engine, "n_supersteps", None),
    )


def verify_engines_agree(
    partition: PartitionedGraph,
    program_factory: Callable[[], object],
    initial_fn: Callable[[object], Iterable[Tuple[int, Tuple]]],
    state_fn: Callable[[object], Sequence[np.ndarray]],
    *,
    engines: Sequence[str] | None = None,
    machine: MachineModel | None = None,
    discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
) -> dict[str, EngineResult]:
    """Run a fresh program under several engines and assert their
    converged states are identical (the registry contract).

    ``program_factory`` builds a fresh program per engine; ``initial_fn``
    yields its phase-start messages; ``state_fn`` extracts the arrays to
    compare.  Used by the engine benchmark before any speedup is
    recorded, mirroring ``verify_backends_agree``.
    """
    names = list(engines) if engines is not None else available_engines()
    results: dict[str, EngineResult] = {}
    ref_state: Sequence[np.ndarray] | None = None
    ref_name = ""
    for engine_name in names:
        program = program_factory()
        results[engine_name] = run_phase_with(
            engine_name,
            partition,
            program,
            list(initial_fn(program)),
            machine=machine,
            discipline=discipline,
        )
        state = state_fn(program)
        if ref_state is None:
            ref_state, ref_name = state, engine_name
        elif not all(
            np.array_equal(a, b) for a, b in zip(ref_state, state)
        ):
            raise AssertionError(
                f"engine {engine_name!r} disagrees with {ref_name!r}"
            )
    return results


# --------------------------------------------------------------------- #
# built-in registrations
# --------------------------------------------------------------------- #
@register_engine(
    "async-heap",
    "asynchronous discrete-event executor (HavoqGT stand-in, default)",
)
def _async_heap_factory(
    partition: PartitionedGraph,
    machine: MachineModel | None = None,
    discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    *,
    aggregate_remote: bool = False,
) -> AsyncEngine:
    return AsyncEngine(
        partition, machine, discipline, aggregate_remote=aggregate_remote
    )


@register_engine(
    "bsp", "per-message bulk-synchronous supersteps (Pregel-style ablation)"
)
def _bsp_factory(
    partition: PartitionedGraph,
    machine: MachineModel | None = None,
    discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    *,
    aggregate_remote: bool = False,
) -> BSPEngine:
    # aggregation is an async-runtime knob; BSP already models bulk
    # per-superstep delivery, so the flag is accepted and ignored
    return BSPEngine(partition, machine, discipline)


@register_engine(
    "bsp-batched",
    "vectorised bulk-synchronous supersteps (NumPy array ops per superstep)",
)
def _bsp_batched_factory(
    partition: PartitionedGraph,
    machine: MachineModel | None = None,
    discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    *,
    aggregate_remote: bool = False,
) -> BSPBatchedEngine:
    return BSPBatchedEngine(partition, machine, discipline)


if TYPE_CHECKING:
    from repro.contracts import RuntimeEngine

    # mypy structurally verifies every built-in engine class against the
    # registry contract (repro.contracts.RuntimeEngine); dropping or
    # renaming run_phase fails type-checking on this line, and running
    # it is pinned by tests/test_engine_conformance.py.
    _ENGINE_CONFORMANCE: tuple[type[RuntimeEngine], ...] = (
        AsyncEngine,
        BSPEngine,
        BSPBatchedEngine,
    )
