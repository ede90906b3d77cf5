"""Vectorised bulk-synchronous engine: one superstep = NumPy array ops.

:class:`BSPBatchedEngine` executes the exact superstep semantics of
:class:`~repro.runtime.engine.BSPEngine` — same acceptances, same
emissions, same local/remote message counts, same superstep count — but
replaces the one-Python-callback-per-message inner loop with whole-array
operations supplied by the *program* through the batch protocol:

``batch_payload_width``
    Number of int64 columns a payload row occupies.
``batch_encode(target, payload) -> tuple[int, ...]``
    Scalar encoding of a phase-start message into a payload row (the
    target's sign keeps distinguishing vertex- from rank-addressed).
``batch_visit(targets, payload, emitter)``
    Process all vertex-addressed messages of one superstep: update the
    program state and push emissions through the
    :class:`BatchEmitter` (bulk neighbour gather via ``np.repeat`` on
    the CSR, per-vertex candidate reduction by
    :func:`repro.shortest_paths.vectorized.adopt_lexmin`, see
    :meth:`repro.core.voronoi_visitor.VoronoiProgram.batch_visit`).
``batch_visit_rank(ranks, payload, emitter)``
    Same for rank-addressed messages (delegate slice expansion).

Why this is exact, not approximate: under the PRIORITY discipline the
scalar BSP engine sorts each rank's inbox by the program's *total*
``sort_key`` order, so within a superstep each vertex accepts exactly
its lexicographic-minimum improving candidate and every other candidate
is rejected against the adopted state — a pure per-vertex reduction,
which is what ``batch_visit`` computes.  Rank-addressed messages never
read mutable state, so their relative order is immaterial.  The engine
layer then does routing, local/remote counting and cost-model
accounting in bulk (``np.bincount`` over emitting ranks instead of
per-message float adds — simulated times agree to float round-off,
counts agree exactly).

Programs without the batch protocol, and all FIFO runs (arrival order
is inherently sequential), transparently fall back to the per-message
superstep loop, so the engine is total over every
:class:`~repro.runtime.engine.VertexProgram`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.runtime.engine import BSPEngine, PhaseStats, VertexProgram
from repro.runtime.queues import QueueDiscipline

__all__ = [
    "BSPBatchedEngine",
    "BatchEmitter",
    "supports_batch",
]


def supports_batch(program: VertexProgram) -> bool:
    """True iff the program implements the vectorised superstep hooks.

    >>> class Plain:
    ...     def priority(self, payload):
    ...         return 0.0
    >>> supports_batch(Plain())
    False
    """
    return all(
        hasattr(program, attr)
        for attr in ("batch_payload_width", "batch_encode", "batch_visit")
    )


class BatchEmitter:
    """Collects one superstep's emissions as arrays.

    Programs call :meth:`emit` with equally-long arrays: the emitting
    rank of each message (for busy-time accounting), the targets (vertex
    ids, or ``-rank - 1``), and the payload rows.
    """

    __slots__ = ("_src", "_targets", "_payload", "_width")

    def __init__(self, payload_width: int) -> None:
        self._src: list[np.ndarray] = []
        self._targets: list[np.ndarray] = []
        self._payload: list[np.ndarray] = []
        self._width = payload_width

    def emit(
        self, src_ranks: np.ndarray, targets: np.ndarray, payload: np.ndarray
    ) -> None:
        """Queue ``targets.size`` messages for next-superstep delivery."""
        self._src.append(src_ranks)
        self._targets.append(targets)
        self._payload.append(payload)

    def drain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All emissions as ``(src_ranks, targets, payload)`` arrays."""
        if not self._targets:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros((0, self._width), dtype=np.int64)
        if len(self._targets) == 1:
            return self._src[0], self._targets[0], self._payload[0]
        return (
            np.concatenate(self._src),
            np.concatenate(self._targets),
            np.vstack(self._payload),
        )


class BSPBatchedEngine(BSPEngine):
    """Bulk-synchronous engine with vectorised supersteps.

    Parity contract (pinned by ``tests/test_engines.py``): for every
    batch-capable program under the PRIORITY discipline, this engine's
    ``n_visits``, ``n_messages_local``, ``n_messages_remote``,
    ``bytes_sent``, ``peak_queue_total`` and superstep count are
    **bit-identical** to :class:`~repro.runtime.engine.BSPEngine`'s, and
    ``sim_time``/``busy_time`` agree to float round-off.  What may
    differ across *execution models* (async vs BSP) is the message
    count itself — scheduling order changes how many wasted relaxations
    occur, the effect the paper's Figs. 5-6 measure.
    """

    def run_phase(
        self,
        name: str,
        program: VertexProgram,
        initial_messages: Iterable[Tuple[int, Tuple]],
        *,
        max_events: Optional[int] = None,
        max_supersteps: int = 1_000_000,
    ) -> PhaseStats:
        """Run ``program`` to quiescence in vectorised supersteps (falls
        back to the per-message loop for non-batchable programs or FIFO
        runs — identical semantics either way)."""
        if (
            not supports_batch(program)
            or self.discipline is not QueueDiscipline.PRIORITY
        ):
            return super().run_phase(
                name,
                program,
                initial_messages,
                max_events=max_events,
                max_supersteps=max_supersteps,
            )

        machine = self.machine
        n_ranks = self.partition.n_ranks
        owner = self.partition.owner
        width = program.batch_payload_width
        stats = PhaseStats(name=name, busy_time=np.zeros(n_ranks))

        def route(tgts: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
            # the rank processing each message (the addressed rank, or the
            # owner of the addressed vertex) and the rank-message mask, if any
            is_rank = tgts < 0
            if not is_rank.any():
                return owner[tgts], None
            return np.where(is_rank, -tgts - 1, owner[np.maximum(tgts, 0)]), is_rank

        rows = [
            (target, program.batch_encode(target, payload))
            for target, payload in initial_messages
        ]
        targets = np.asarray([t for t, _ in rows], dtype=np.int64)
        payload = np.asarray(
            [r for _, r in rows], dtype=np.int64
        ).reshape(-1, width)
        proc_rank, is_rank = route(targets)

        barrier = machine.allreduce_time(n_ranks, 8) + machine.message_delay(
            n_ranks > 1
        )
        supersteps = 0
        events = 0
        total_time = 0.0
        while targets.size:
            supersteps += 1
            if supersteps > max_supersteps:
                raise SimulationError(f"BSP phase {name!r} did not converge")
            events += targets.size
            if max_events is not None and events > max_events:
                raise SimulationError(
                    f"phase {name!r} exceeded {max_events} events (runaway?)"
                )
            if targets.size > stats.peak_queue_total:
                stats.peak_queue_total = int(targets.size)
            stats.n_visits += int(targets.size)

            emitter = BatchEmitter(width)
            if is_rank is None:
                program.batch_visit(targets, payload, emitter)
            else:
                program.batch_visit_rank(
                    -targets[is_rank] - 1, payload[is_rank], emitter
                )
                vmask = ~is_rank
                if vmask.any():
                    program.batch_visit(targets[vmask], payload[vmask], emitter)
            src_ranks, out_targets, out_payload = emitter.drain()

            # vectorised cost-model accounting: t_visit per processed
            # message, t_emit per emission, attributed to the acting rank
            step_rank_time = machine.t_visit * np.bincount(
                proc_rank, minlength=n_ranks
            ) + machine.t_emit * np.bincount(src_ranks, minlength=n_ranks)
            stats.busy_time += step_rank_time
            total_time += float(step_rank_time.max()) + barrier

            # each emission's destination is the next superstep's
            # processing rank
            proc_rank, is_rank = route(out_targets)
            n_local = int(np.count_nonzero(proc_rank == src_ranks))
            stats.n_messages_local += n_local
            stats.n_messages_remote += int(out_targets.size) - n_local
            stats.bytes_sent += int(out_targets.size) * machine.bytes_per_message

            targets, payload = out_targets, out_payload

        stats.sim_time = total_time
        self.n_supersteps = supersteps
        self.clock += total_time
        self.phases.append(stats)
        return stats
