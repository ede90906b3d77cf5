"""Unit tests for the discrete-event engine (async + BSP)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.graph.generators import grid_graph
from repro.runtime.cost_model import MachineModel
from repro.runtime.engine import AsyncEngine, BSPEngine
from repro.runtime.partition import block_partition


class EchoProgram:
    """Forwards a counter along a fixed vertex chain: each visit at
    vertex v with payload (hops,) re-emits to v+1 while hops > 0."""

    def __init__(self, n_vertices: int):
        self.n = n_vertices
        self.visits: list[tuple[int, int]] = []

    def priority(self, payload):
        return float(payload[0])

    def visit(self, vertex, payload, emit):
        hops = payload[0]
        self.visits.append((vertex, hops))
        if hops > 0 and vertex + 1 < self.n:
            emit(vertex + 1, (hops - 1,))

    def visit_rank(self, rank, payload, emit):
        raise AssertionError("not used")


class RankEchoProgram:
    """Counts rank-addressed deliveries."""

    def __init__(self):
        self.rank_visits: list[int] = []

    def priority(self, payload):
        return 0.0

    def visit(self, vertex, payload, emit):
        # vertex message forwards once to rank 1
        emit(-2, ("to-rank-1",))

    def visit_rank(self, rank, payload, emit):
        self.rank_visits.append(rank)


def make_engine(n=16, ranks=4, discipline="priority"):
    part = block_partition(grid_graph(1, n), ranks)
    return AsyncEngine(part, MachineModel(), discipline), part


class TestAsyncEngine:
    def test_chain_delivery(self):
        engine, part = make_engine()
        prog = EchoProgram(16)
        stats = engine.run_phase("chain", prog, [(0, (7,))])
        # 8 visits: hops 7..0 at vertices 0..7
        assert [v for v, _ in sorted(prog.visits)] == list(range(8))
        assert stats.n_visits == 8
        assert stats.n_messages == 7

    def test_local_vs_remote_counting(self):
        engine, part = make_engine(n=16, ranks=4)
        prog = EchoProgram(16)
        stats = engine.run_phase("chain", prog, [(0, (15,))])
        # chain 0..15 over 4 contiguous blocks of 4: 3 boundary crossings
        assert stats.n_messages_remote == 3
        assert stats.n_messages_local == 12

    def test_sim_time_positive_and_busy_bounded(self):
        engine, _ = make_engine()
        prog = EchoProgram(16)
        stats = engine.run_phase("chain", prog, [(0, (7,))])
        assert stats.sim_time > 0
        assert (stats.busy_time <= stats.sim_time + 1e-12).all()

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            engine, _ = make_engine()
            prog = EchoProgram(16)
            stats = engine.run_phase("chain", prog, [(0, (9,))])
            runs.append((stats.sim_time, stats.n_messages, tuple(prog.visits)))
        assert runs[0] == runs[1]

    def test_rank_addressed_messages(self):
        engine, _ = make_engine()
        prog = RankEchoProgram()
        stats = engine.run_phase("ranks", prog, [(0, ("go",))])
        assert prog.rank_visits == [1]
        assert stats.n_visits == 2

    def test_max_events_guard(self, monkeypatch):
        engine, _ = make_engine()
        monkeypatch.setattr(AsyncEngine, "_max_events_guard", 3)
        prog = EchoProgram(16)
        with pytest.raises(SimulationError, match="exceeded 3 events"):
            engine.run_phase("chain", prog, [(0, (15,))])

    def test_phases_accumulate_clock(self):
        engine, _ = make_engine()
        prog = EchoProgram(16)
        engine.run_phase("one", prog, [(0, (3,))])
        clock_after_one = engine.clock
        engine.run_phase("two", prog, [(0, (3,))])
        assert engine.clock > clock_after_one
        assert [p.name for p in engine.phases] == ["one", "two"]

    def test_empty_phase(self):
        engine, _ = make_engine()
        prog = EchoProgram(16)
        stats = engine.run_phase("noop", prog, [])
        assert stats.sim_time == 0.0
        assert stats.n_visits == 0

    def test_peak_queue_tracked(self):
        engine, _ = make_engine(ranks=1)
        prog = EchoProgram(16)
        # burst of initial messages lands in one rank's buffer
        stats = engine.run_phase("burst", prog, [(i, (0,)) for i in range(10)])
        assert stats.peak_queue_total >= 2


class TestBSPEngine:
    def test_same_visits_as_async(self):
        part = block_partition(grid_graph(1, 16), 4)
        bsp = BSPEngine(part, MachineModel(), "priority")
        prog = EchoProgram(16)
        stats = bsp.run_phase("chain", prog, [(0, (7,))])
        assert stats.n_visits == 8
        assert bsp.n_supersteps == 8  # one hop per superstep

    def test_bsp_slower_than_async_on_chain(self):
        part = block_partition(grid_graph(1, 32), 4)
        machine = MachineModel()
        async_prog = EchoProgram(32)
        async_stats = AsyncEngine(part, machine, "priority").run_phase(
            "c", async_prog, [(0, (31,))]
        )
        bsp_prog = EchoProgram(32)
        bsp_stats = BSPEngine(part, machine, "priority").run_phase(
            "c", bsp_prog, [(0, (31,))]
        )
        # same work, but BSP pays a barrier per superstep
        assert bsp_stats.sim_time > async_stats.sim_time

    def test_superstep_cap(self, monkeypatch):
        part = block_partition(grid_graph(1, 16), 2)
        bsp = BSPEngine(part, MachineModel(), "fifo")
        prog = EchoProgram(16)
        monkeypatch.setattr(BSPEngine, "_max_supersteps_guard", 2)
        with pytest.raises(SimulationError, match="converge"):
            bsp.run_phase("chain", prog, [(0, (15,))])
