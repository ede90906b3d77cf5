"""Tests for the exception hierarchy, engine aggregation, and the
EXPERIMENTS.md generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    DisconnectedSeedsError,
    GraphError,
    PartitionError,
    ReproError,
    SeedError,
    SimulationError,
    ValidationError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphError,
            SeedError,
            PartitionError,
            SimulationError,
            ValidationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_disconnected_seeds_is_seed_error(self):
        assert issubclass(DisconnectedSeedsError, SeedError)

    def test_disconnected_seeds_message(self):
        err = DisconnectedSeedsError([5, 7])
        assert "2 seed" in str(err)
        assert err.unreached == [5, 7]

    def test_disconnected_seeds_truncates_long_lists(self):
        err = DisconnectedSeedsError(list(range(50)))
        assert "..." in str(err)

    def test_catchall(self):
        try:
            raise SeedError("nope")
        except ReproError:
            pass  # the single except clause the hierarchy promises


class TestAggregation:
    def test_same_tree_and_faster_or_equal(self):
        from repro.core.config import SolverConfig
        from repro.core.solver import DistributedSteinerSolver
        from tests.conftest import component_seeds, make_connected_graph

        g = make_connected_graph(60, 160, seed=950)
        seeds = component_seeds(g, 6, seed=950)
        plain = DistributedSteinerSolver(
            g, SolverConfig(n_ranks=8)
        ).solve(seeds)
        agg = DistributedSteinerSolver(
            g, SolverConfig(n_ranks=8, aggregate_remote_messages=True)
        ).solve(seeds)
        assert np.array_equal(plain.edges, agg.edges)

    def test_aggregation_cuts_hub_fanout_cost(self):
        """A hub fanning out to one remote rank should serve faster with
        aggregation (one transfer, shared overhead)."""
        from repro.graph.csr import CSRGraph
        from repro.runtime.cost_model import MachineModel
        from repro.runtime.engine import AsyncEngine
        from repro.runtime.partition import block_partition

        # star: hub 0 on rank 0, leaves on rank 1
        n = 32
        g = CSRGraph.from_edges(n, [(0, i) for i in range(1, n)], [1] * (n - 1))
        part = block_partition(g, 2)

        class FanOut:
            def priority(self, payload):
                return 0.0

            def visit(self, vertex, payload, emit):
                if vertex == 0:
                    for v in range(1, n):
                        emit(v, ("x",))

            def visit_rank(self, rank, payload, emit):
                raise AssertionError

        times = {}
        for agg in (False, True):
            engine = AsyncEngine(
                part, MachineModel(), "priority", aggregate_remote=agg
            )
            stats = engine.run_phase("fan", FanOut(), [(0, ("go",))])
            times[agg] = stats.sim_time
            assert stats.n_visits == n  # hub + all leaves
        assert times[True] < times[False]


class TestExperimentsMdGenerator:
    def test_quick_generation_writes_file(self, tmp_path, monkeypatch):
        import repro.harness.experiments_md as gen

        # restrict to two cheap experiments to keep the test fast (patch
        # both the registry and the generator's imported binding)
        small = {
            "table3": "repro.harness.experiments.table3_datasets",
            "fig2": "repro.harness.experiments.fig2_walkthrough",
        }
        monkeypatch.setattr("repro.harness.registry.EXPERIMENTS", small)
        monkeypatch.setattr(gen, "EXPERIMENTS", small)
        out = tmp_path / "EXP.md"
        assert gen.main(["--quick", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# EXPERIMENTS" in text
        assert "table3" in text and "fig2" in text
        assert gen.mode_line(quick=True) in text
        assert gen.mode_line(quick=False) not in text

    def test_expectations_cover_registry(self):
        from repro.harness.experiments_md import PAPER_EXPECTATIONS
        from repro.harness.registry import EXPERIMENTS

        missing = set(EXPERIMENTS) - set(PAPER_EXPECTATIONS)
        assert not missing, f"experiments without paper expectation: {missing}"
