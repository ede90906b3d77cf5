"""Native (numba-JIT) bulk-synchronous engine: one superstep = one kernel.

:class:`BSPNativeEngine` executes the exact superstep semantics of
:class:`~repro.runtime.engine_batched.BSPBatchedEngine` — same
acceptances, same emissions, same local/remote message counts, same
superstep count — but runs the whole inner superstep (neighbour gather,
per-vertex lexicographic-min reduction, per-rank visit/emit cost
accounting) as **one compiled kernel** instead of a chain of NumPy
dispatches (``np.lexsort`` + first-occurrence mask + ``np.repeat``
gather + three ``np.bincount`` calls).  On 1M-edge graphs the NumPy
chain is dispatch-bound; the fused kernel is not (see
``benchmarks/bench_engines.py``, scale suite).

Native-path requirements (all checked per phase, with a transparent
fall-back to the batched NumPy supersteps when any is missing — the
semantics are identical either way):

* numba importable (else the engine *is* ``bsp-batched``; the
  ``repro-steiner engines`` listing reports the fallback and why);
* the program exposes :meth:`native_state` — the
  ``(dist, src, pred)`` arrays the kernel relaxes in place
  (:class:`~repro.core.voronoi_visitor.VoronoiProgram` does);
* the PRIORITY discipline (FIFO arrival order is inherently
  sequential, exactly as in the batched engine);
* no delegate partitioning (delegate fan-out sends rank-addressed
  messages, which stay on the NumPy path).

Parity contract (pinned by ``tests/test_native.py``): identical
``n_visits``, ``n_messages_local``, ``n_messages_remote``,
``bytes_sent``, ``peak_queue_total`` and superstep counts to ``bsp`` /
``bsp-batched``, and the identical converged ``(src, dist)`` fixpoint —
the kernel computes the same per-vertex lexicographic minimum over the
same inbox, so the per-superstep emission multiset is equal by
construction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.native import NUMBA_AVAILABLE, njit, register_warmup
from repro.runtime.engine import PhaseStats, VertexProgram
from repro.runtime.engine_batched import BSPBatchedEngine, supports_batch
from repro.runtime.queues import QueueDiscipline

__all__ = ["BSPNativeEngine", "supports_native"]


def supports_native(program: VertexProgram) -> bool:
    """True iff the program exposes the native-superstep state hook
    (on top of the batch protocol the encoded inbox comes from).

    >>> class Plain:
    ...     pass
    >>> supports_native(Plain())
    False
    """
    return hasattr(program, "native_state") and supports_batch(program)


@njit
def _superstep(
    targets, vp, t, r,
    dist, src, pred,
    indptr, indices, weights, owner,
    stamp, best_r, best_t, best_vp, touched,
    step, n_ranks,
):
    """One fused superstep over the inbox arrays.

    Reduces the inbox to each vertex's lexicographic-minimum candidate
    ``(r, t, vp)`` (stamp-array reduction — O(messages), no sort),
    applies the improvement test against ``(dist, src)``, adopts and
    expands winners over the CSR, and accumulates the per-rank visit /
    emit counts the engine's cost model charges.  Returns the next
    superstep's inbox columns plus the accounting vectors.

    Seed bootstrap messages (``vp == t == target`` and ``r == 0``)
    expand unconditionally, exactly as in
    :meth:`~repro.core.voronoi_visitor.VoronoiProgram.batch_visit`.
    """
    m = targets.shape[0]
    visit_cnt = np.zeros(n_ranks, dtype=np.int64)
    boot_u = np.empty(m, dtype=np.int64)
    n_boot = 0
    n_touched = 0
    for j in range(m):
        v = targets[j]
        visit_cnt[owner[v]] += 1
        if vp[j] == v and t[j] == v and r[j] == 0:
            boot_u[n_boot] = v
            n_boot += 1
            continue
        if stamp[v] != step:
            stamp[v] = step
            touched[n_touched] = v
            n_touched += 1
            best_r[v] = r[j]
            best_t[v] = t[j]
            best_vp[v] = vp[j]
        else:
            rj = r[j]
            br = best_r[v]
            if rj < br or (
                rj == br
                and (
                    t[j] < best_t[v]
                    or (t[j] == best_t[v] and vp[j] < best_vp[v])
                )
            ):
                best_r[v] = rj
                best_t[v] = t[j]
                best_vp[v] = vp[j]

    # adoption: bootstraps expand unconditionally, winners must improve
    adopt_u = np.empty(n_boot + n_touched, dtype=np.int64)
    adopt_t = np.empty(n_boot + n_touched, dtype=np.int64)
    adopt_r = np.empty(n_boot + n_touched, dtype=np.int64)
    na = 0
    for i in range(n_boot):
        u = boot_u[i]
        adopt_u[na] = u
        adopt_t[na] = u
        adopt_r[na] = 0
        na += 1
    for i in range(n_touched):
        v = touched[i]
        br = best_r[v]
        if br < dist[v] or (br == dist[v] and best_t[v] < src[v]):
            dist[v] = br
            src[v] = best_t[v]
            pred[v] = best_vp[v]
            adopt_u[na] = v
            adopt_t[na] = best_t[v]
            adopt_r[na] = br
            na += 1

    # expansion: every out-arc of every adopting vertex, one pass
    total = 0
    for i in range(na):
        u = adopt_u[i]
        total += indptr[u + 1] - indptr[u]
    out_targets = np.empty(total, dtype=np.int64)
    out_vp = np.empty(total, dtype=np.int64)
    out_t = np.empty(total, dtype=np.int64)
    out_r = np.empty(total, dtype=np.int64)
    emit_cnt = np.zeros(n_ranks, dtype=np.int64)
    n_local = 0
    j = 0
    for i in range(na):
        u = adopt_u[i]
        tu = adopt_t[i]
        ru = adopt_r[i]
        ou = owner[u]
        for a in range(indptr[u], indptr[u + 1]):
            h = indices[a]
            out_targets[j] = h
            out_vp[j] = u
            out_t[j] = tu
            out_r[j] = ru + weights[a]
            if owner[h] == ou:
                n_local += 1
            j += 1
        emit_cnt[ou] += indptr[u + 1] - indptr[u]
    return out_targets, out_vp, out_t, out_r, visit_cnt, emit_cnt, n_local


class BSPNativeEngine(BSPBatchedEngine):
    """Batched BSP engine whose supersteps run as one compiled kernel.

    ``force_native=True`` runs the native path even without numba — the
    kernels are then executed as plain Python (slow), which is how the
    parity tests exercise the kernel logic in no-numba environments.
    Production callers never set it: without numba the engine simply
    behaves as :class:`~repro.runtime.engine_batched.BSPBatchedEngine`.
    """

    def __init__(
        self,
        partition,
        machine=None,
        discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
        *,
        force_native: bool = False,
    ) -> None:
        super().__init__(partition, machine, discipline)
        self._force_native = force_native

    # ------------------------------------------------------------------ #
    def _native_capable(self, program: VertexProgram) -> bool:
        """The native kernel handles this phase (else: batched NumPy)."""
        return (
            (NUMBA_AVAILABLE or self._force_native)
            and supports_native(program)
            and self.discipline is QueueDiscipline.PRIORITY
            and self.partition.delegates.size == 0
        )

    def run_phase(
        self,
        name: str,
        program: VertexProgram,
        initial_messages: Iterable[Tuple[int, Tuple]],
        *,
        max_events: Optional[int] = None,
        max_supersteps: int = 1_000_000,
    ) -> PhaseStats:
        """Run ``program`` to quiescence, one compiled kernel call per
        superstep (transparent fallback to the vectorised-NumPy
        supersteps whenever the native path cannot apply — identical
        semantics and counters either way)."""
        if not self._native_capable(program):
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
        graph = self.partition.graph
        n = graph.n_vertices
        width = program.batch_payload_width
        stats = PhaseStats(name=name, busy_time=np.zeros(n_ranks))

        rows = [
            (target, program.batch_encode(target, payload))
            for target, payload in initial_messages
        ]
        targets = np.asarray([tgt for tgt, _ in rows], dtype=np.int64)
        payload = np.asarray(
            [row for _, row in rows], dtype=np.int64
        ).reshape(-1, width)
        vp = np.ascontiguousarray(payload[:, 0])
        t = np.ascontiguousarray(payload[:, 1])
        r = np.ascontiguousarray(payload[:, 2])

        # the iterable above may be a generator that initialises program
        # state (seed bootstrap), so read the state arrays only now
        src_arr, pred_arr, dist_arr = program.native_state()

        # per-phase kernel scratch: stamp-keyed per-vertex reduction slots
        stamp = np.zeros(n, dtype=np.int64)
        best_r = np.empty(n, dtype=np.int64)
        best_t = np.empty(n, dtype=np.int64)
        best_vp = np.empty(n, dtype=np.int64)
        touched = np.empty(n, dtype=np.int64)

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

            (
                targets, vp, t, r, visit_cnt, emit_cnt, n_local
            ) = _superstep(
                targets, vp, t, r,
                dist_arr, src_arr, pred_arr,
                graph.indptr, graph.indices, graph.weights, owner,
                stamp, best_r, best_t, best_vp, touched,
                np.int64(supersteps), np.int64(n_ranks),
            )

            step_rank_time = (
                machine.t_visit * visit_cnt + machine.t_emit * emit_cnt
            )
            stats.busy_time += step_rank_time
            total_time += float(step_rank_time.max()) + barrier

            stats.n_messages_local += int(n_local)
            stats.n_messages_remote += int(targets.size) - int(n_local)
            stats.bytes_sent += int(targets.size) * machine.bytes_per_message

        stats.sim_time = total_time
        self.n_supersteps = supersteps
        self.clock += total_time
        self.phases.append(stats)
        return stats


@register_warmup
def _warmup() -> None:
    """Compile the superstep kernel on a 2-vertex instance, outside any
    benchmark timing column."""
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    weights = np.array([1, 1], dtype=np.int64)
    owner = np.zeros(2, dtype=np.int64)
    n = 2
    _superstep(
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.full(n, np.iinfo(np.int64).max, dtype=np.int64),
        np.full(n, -1, dtype=np.int64),
        np.full(n, -1, dtype=np.int64),
        indptr, indices, weights, owner,
        np.zeros(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.int64(1), np.int64(1),
    )
