"""Asynchronous discrete-event engine (and a BSP variant for ablation).

This is the simulation core standing in for HavoqGT's asynchronous
visitor runtime.  Semantics:

* every simulated MPI **rank** is a single non-preemptive server with a
  pending-message buffer (FIFO or priority — see
  :mod:`repro.runtime.queues`) and a local clock;
* a **message** is addressed to a vertex (delivered to its owner rank) or
  directly to a rank (used for delegate fan-out);
* processing one message runs the program's ``visit`` callback, which may
  emit further messages; emitted messages *depart* when the service
  completes and *arrive* after the local/remote delay from the
  :class:`~repro.runtime.cost_model.MachineModel`;
* a phase ends at quiescence (no in-flight messages anywhere) — the same
  termination condition as HavoqGT's ``do_traversal``.

The engine is fully deterministic: event ties break on a monotone
sequence number, so identical inputs give identical timelines, message
counts and output state — the property the reproducibility tests pin
down.

Engines implementing this contract are registered in
:mod:`repro.runtime.engines` (``async-heap``, ``bsp``, ``bsp-batched``)
and selected via ``SolverConfig(engine=...)``; the shared pieces of the
contract — destination routing, visit dispatch, in-superstep ordering —
live in this module so every engine counts and routes identically.

Simulated time vs wall time: the event loop itself runs serially in
Python; all reported times are derived from the event timeline (per-rank
clocks), not from the host's clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Protocol, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.runtime.cost_model import MachineModel
from repro.runtime.partition import PartitionedGraph
from repro.runtime.queues import QueueDiscipline, make_queue

__all__ = [
    "AsyncEngine",
    "BSPEngine",
    "EngineBase",
    "PhaseStats",
    "VertexProgram",
    "dest_rank",
    "dispatch_visit",
    "superstep_sort_key",
]

# message target encoding: >= 0 -> vertex id; < 0 -> rank (-target - 1)
_ARRIVAL = 0
_COMPLETE = 1


class VertexProgram(Protocol):
    """Contract for algorithms run on the engine (Alg. 4/6 implement it).

    ``priority`` maps a payload to its queue priority (lower = sooner);
    ``visit`` handles a vertex-addressed message; ``visit_rank`` handles a
    rank-addressed message (delegate slice expansion).  Both receive an
    ``emit(target, payload)`` callable.

    Programs may additionally implement the optional hooks used by the
    bulk-synchronous engines:

    * ``sort_key(payload)`` — a *total* deterministic in-superstep
      ordering (priority refined with tie-breaks); see
      :func:`superstep_sort_key`;
    * the batch protocol (``batch_encode`` / ``batch_visit`` /
      ``batch_visit_rank``) consumed by
      :class:`~repro.runtime.engine_batched.BSPBatchedEngine`.
    """

    def priority(self, payload: Tuple) -> float:  # pragma: no cover
        ...

    def visit(
        self, vertex: int, payload: Tuple, emit: Callable[[int, Tuple], None]
    ) -> None:  # pragma: no cover
        ...

    def visit_rank(
        self, rank: int, payload: Tuple, emit: Callable[[int, Tuple], None]
    ) -> None:  # pragma: no cover
        ...


# --------------------------------------------------------------------- #
# shared helpers (one copy of the routing/dispatch logic for all engines)
# --------------------------------------------------------------------- #
def dest_rank(owner: np.ndarray, target: int) -> int:
    """Rank a message is delivered to: the owner of a vertex target, or
    the encoded rank itself (``target < 0`` means rank ``-target - 1``)."""
    return int(owner[target]) if target >= 0 else -target - 1


def dispatch_visit(
    program: VertexProgram,
    target: int,
    payload: Tuple,
    emit: Callable[[int, Tuple], None],
) -> None:
    """Run one message through the program's visit callback (vertex- or
    rank-addressed, per the target encoding)."""
    if target >= 0:
        program.visit(target, payload, emit)
    else:
        program.visit_rank(-target - 1, payload, emit)


def superstep_sort_key(program: VertexProgram) -> Callable[[Tuple], Any]:
    """In-superstep processing order for the bulk-synchronous engines.

    Programs exposing ``sort_key`` get a total lexicographic order (so a
    superstep accepts exactly the per-vertex lexicographic-minimum
    improving candidate — the invariant the batched engine vectorises);
    everything else falls back to the scalar ``priority``, with Python's
    stable sort preserving arrival order among ties.
    """
    return getattr(program, "sort_key", None) or program.priority


@dataclass
class PhaseStats:
    """Everything measured about one computation phase.

    ``sim_time`` is the phase makespan in simulated seconds (what the
    paper's stacked bar charts plot); message counts split local/remote
    (Fig. 6 plots their sum); ``busy_time`` per rank supports the
    load-imbalance analyses.
    """

    name: str
    sim_time: float = 0.0
    n_visits: int = 0
    n_messages_local: int = 0
    n_messages_remote: int = 0
    bytes_sent: int = 0
    peak_queue_total: int = 0
    busy_time: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_messages(self) -> int:
        """Total message count (the Fig. 6 metric)."""
        return self.n_messages_local + self.n_messages_remote

    def parallel_efficiency(self) -> float:
        """Mean busy fraction across ranks during the phase."""
        if self.sim_time <= 0 or self.busy_time.size == 0:
            return 1.0
        return float(self.busy_time.mean() / self.sim_time)


class EngineBase:
    """State and helpers shared by every registered runtime engine.

    Subclasses implement ``run_phase(name, program, initial_messages,
    *, max_events=None, ...) -> PhaseStats``; this base provides the
    configuration, the phase record, the global simulated clock and the
    routing helpers, so all engines count messages identically.
    """

    def __init__(
        self,
        partition: PartitionedGraph,
        machine: MachineModel | None = None,
        discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    ) -> None:
        self.partition = partition
        self.machine = machine or MachineModel()
        self.discipline = QueueDiscipline(discipline)
        self.clock = 0.0  # global simulated clock across phases
        self.phases: List[PhaseStats] = []

    # ------------------------------------------------------------------ #
    def route_initial(
        self, initial_messages: Iterable[Tuple[int, Tuple]]
    ) -> Iterable[Tuple[int, Tuple[int, Tuple]]]:
        """Resolve phase-start messages to ``(rank, (target, payload))``.

        Initial messages carry no transfer cost: they are local state
        initialisation, like HavoqGT's ``init_all`` traversal.
        """
        owner = self.partition.owner
        for target, payload in initial_messages:
            yield dest_rank(owner, target), (target, payload)


class AsyncEngine(EngineBase):
    """Asynchronous message-driven executor over a partitioned graph."""

    def __init__(
        self,
        partition: PartitionedGraph,
        machine: MachineModel | None = None,
        discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
        *,
        aggregate_remote: bool = False,
    ) -> None:
        super().__init__(partition, machine, discipline)
        #: HavoqGT-style message aggregation: messages a single visit
        #: emits toward the same remote rank share one wire transfer —
        #: the first pays the full network latency, the rest only the
        #: per-message bandwidth term.  Message *counts* are unchanged
        #: (the paper's Fig. 6 counts visitors, not wire packets).
        self.aggregate_remote = aggregate_remote
        self._max_events_guard = 500_000_000  # hard runaway stop

    # ------------------------------------------------------------------ #
    def run_phase(
        self,
        name: str,
        program: VertexProgram,
        initial_messages: Iterable[Tuple[int, Tuple]],
        *,
        max_events: Optional[int] = None,
    ) -> PhaseStats:
        """Run ``program`` to quiescence; returns and records the stats.

        ``initial_messages`` are ``(target, payload)`` pairs injected at
        phase start (HavoqGT's ``do_traversal(init_all)`` analogue).
        The phase begins at the current global clock (phases are barrier
        separated, per the paper's Alg. 3) and advances it.
        """
        machine = self.machine
        n_ranks = self.partition.n_ranks
        owner = self.partition.owner
        t_visit = machine.t_visit
        t_emit = machine.t_emit
        local_delay = machine.message_delay(True)
        remote_delay = machine.message_delay(False)
        msg_bytes = machine.bytes_per_message
        prio_fn = program.priority
        limit = max_events if max_events is not None else self._max_events_guard

        stats = PhaseStats(name=name, busy_time=np.zeros(n_ranks))
        start = self.clock
        buffers = [make_queue(self.discipline) for _ in range(n_ranks)]
        busy = [False] * n_ranks
        evq: list[tuple[float, int, int, int, Any]] = []  # (t, seq, kind, rank, data)
        seq = 0
        buffered_total = 0
        end_time = start

        def push_event(t: float, kind: int, rank: int, data: Any) -> None:
            nonlocal seq
            seq += 1
            heapq.heappush(evq, (t, seq, kind, rank, data))

        for rank, msg in self.route_initial(initial_messages):
            push_event(start, _ARRIVAL, rank, msg)

        emitted: list[tuple[int, Tuple]] = []

        def emit(target: int, payload: Tuple) -> None:
            emitted.append((target, payload))

        aggregate = self.aggregate_remote
        bandwidth_delay = msg_bytes / machine.bandwidth

        def start_service(rank: int, t: float) -> None:
            """Pop the best buffered message and execute its visit."""
            nonlocal buffered_total, end_time
            msg = buffers[rank].pop()
            buffered_total -= 1
            target, payload = msg
            emitted.clear()
            dispatch_visit(program, target, payload, emit)
            stats.n_visits += 1

            # resolve destinations once; with aggregation, remote sends
            # to the same rank share one wire transfer, so the per-send
            # CPU overhead applies per *group* (plus a small marshalling
            # cost per item), not per message
            dests = [dest_rank(owner, out_target) for out_target, _ in emitted]
            if aggregate and emitted:
                remote_groups = {d for d in dests if d != rank}
                n_local = sum(1 for d in dests if d == rank)
                n_remote = len(dests) - n_local
                emit_cost = t_emit * (
                    n_local + len(remote_groups) + 0.25 * n_remote
                )
            else:
                emit_cost = t_emit * len(emitted)
            service = t_visit + emit_cost
            done = t + service
            stats.busy_time[rank] += service
            if done > end_time:
                end_time = done

            group_position: dict[int, int] = {}
            for (out_target, out_payload), dest in zip(emitted, dests):
                if dest == rank:
                    stats.n_messages_local += 1
                    arrive = done + local_delay
                else:
                    stats.n_messages_remote += 1
                    if aggregate:
                        # one packet per destination rank: latency once,
                        # items serialised by bandwidth within the packet
                        pos = group_position.get(dest, 0)
                        group_position[dest] = pos + 1
                        arrive = done + remote_delay + pos * bandwidth_delay
                    else:
                        arrive = done + remote_delay
                stats.bytes_sent += msg_bytes
                push_event(arrive, _ARRIVAL, dest, (out_target, out_payload))
            emitted.clear()
            busy[rank] = True
            push_event(done, _COMPLETE, rank, None)

        events = 0
        while evq:
            events += 1
            if events > limit:
                raise SimulationError(
                    f"phase {name!r} exceeded {limit} events (runaway?)"
                )
            t, _s, kind, rank, data = heapq.heappop(evq)
            if kind == _ARRIVAL:
                target, payload = data
                buffers[rank].push(prio_fn(payload), data)
                buffered_total += 1
                if buffered_total > stats.peak_queue_total:
                    stats.peak_queue_total = buffered_total
                if not busy[rank]:
                    start_service(rank, t)
            else:  # _COMPLETE
                if len(buffers[rank]):
                    start_service(rank, t)
                else:
                    busy[rank] = False

        if buffered_total != 0:  # pragma: no cover - invariant
            raise SimulationError("messages left buffered at quiescence")
        stats.sim_time = end_time - start
        self.clock = end_time
        self.phases.append(stats)
        return stats


class BSPEngine(EngineBase):
    """Bulk-synchronous variant for the async-vs-BSP ablation.

    Same programs, but messages generated in superstep ``k`` are all
    delivered in superstep ``k+1``, with a barrier (modelled as an
    allreduce over one word) between supersteps — the Pregel/Giraph
    execution the paper contrasts against.  Within a superstep each rank
    drains its inbox in :func:`superstep_sort_key` order (a no-op under
    FIFO); superstep time is the *maximum* per-rank processing time plus
    the barrier.
    """

    def __init__(
        self,
        partition: PartitionedGraph,
        machine: MachineModel | None = None,
        discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    ) -> None:
        super().__init__(partition, machine, discipline)
        self.n_supersteps = 0

    def run_phase(
        self,
        name: str,
        program: VertexProgram,
        initial_messages: Iterable[Tuple[int, Tuple]],
        *,
        max_events: Optional[int] = None,
        max_supersteps: int = 1_000_000,
    ) -> PhaseStats:
        """Run ``program`` to quiescence in synchronous supersteps."""
        n_ranks = self.partition.n_ranks
        stats = PhaseStats(name=name, busy_time=np.zeros(n_ranks))

        inbox: list[list[tuple[int, Tuple]]] = [[] for _ in range(n_ranks)]
        for rank, msg in self.route_initial(initial_messages):
            inbox[rank].append(msg)

        supersteps = 0
        events = 0
        total_time = 0.0
        while any(inbox):
            supersteps += 1
            if supersteps > max_supersteps:
                raise SimulationError(f"BSP phase {name!r} did not converge")
            inbox, step_time, events = self._superstep_scalar(
                name, program, inbox, stats, events, max_events
            )
            total_time += step_time

        stats.sim_time = total_time
        self.n_supersteps = supersteps
        self.clock += total_time
        self.phases.append(stats)
        return stats

    # ------------------------------------------------------------------ #
    def _superstep_scalar(
        self,
        name: str,
        program: VertexProgram,
        inbox: list[list[tuple[int, Tuple]]],
        stats: PhaseStats,
        events: int,
        max_events: Optional[int],
    ) -> tuple[list[list[tuple[int, Tuple]]], float, int]:
        """One per-message superstep; returns (outbox, step time, events).

        This is the reference execution the batched engine must match
        message-for-message; it is also the fallback path for programs
        without batch support.
        """
        machine = self.machine
        owner = self.partition.owner
        n_ranks = self.partition.n_ranks
        key_fn = superstep_sort_key(program)

        outbox: list[list[tuple[int, Tuple]]] = [[] for _ in range(n_ranks)]
        step_rank_time = np.zeros(n_ranks)
        peak = sum(len(b) for b in inbox)
        if peak > stats.peak_queue_total:
            stats.peak_queue_total = peak

        emitted: list[tuple[int, Tuple]] = []

        def emit(target: int, payload: Tuple) -> None:
            emitted.append((target, payload))

        for rank in range(n_ranks):
            msgs = inbox[rank]
            if not msgs:
                continue
            if self.discipline is QueueDiscipline.PRIORITY:
                msgs.sort(key=lambda m: key_fn(m[1]))
            for target, payload in msgs:
                events += 1
                if max_events is not None and events > max_events:
                    raise SimulationError(
                        f"phase {name!r} exceeded {max_events} events (runaway?)"
                    )
                emitted.clear()
                dispatch_visit(program, target, payload, emit)
                stats.n_visits += 1
                step_rank_time[rank] += (
                    machine.t_visit + machine.t_emit * len(emitted)
                )
                for out_target, out_payload in emitted:
                    dest = dest_rank(owner, out_target)
                    if dest == rank:
                        stats.n_messages_local += 1
                    else:
                        stats.n_messages_remote += 1
                    stats.bytes_sent += machine.bytes_per_message
                    outbox[dest].append((out_target, out_payload))
                emitted.clear()

        stats.busy_time += step_rank_time
        step_time = float(step_rank_time.max()) if n_ranks else 0.0
        step_time += machine.allreduce_time(n_ranks, 8)  # barrier
        step_time += machine.message_delay(n_ranks > 1)  # delivery wave
        return outbox, step_time, events
