"""The runtime-engine registry and cross-engine equivalence.

The registry contract (``repro.runtime.engines``): every engine drives a
program to the identical converged state — for the solver, the identical
``(src, dist)`` fixpoint and hence the bit-identical Steiner tree (same
edges, same total weight).  The two bulk-synchronous engines execute the
same superstep semantics (one per-message, one vectorised), so their
local/remote message counts, visit counts and superstep counts must
match *exactly*; the order-independent Steiner-tree-edge walk phase must
match in counts across **all** engines.  Property tests drive the
engines over random partitioned graphs — block and hash partitions,
with and without delegates — and pin all of it down.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SolverConfig
from repro.core.voronoi_visitor import VoronoiProgram
from repro.graph.csr import CSRGraph
from repro.runtime.engine import AsyncEngine, BSPEngine
from repro.runtime.engine_batched import BSPBatchedEngine, supports_batch
from repro.runtime.engines import (
    DEFAULT_ENGINE,
    available_engines,
    engine_help,
    get_engine,
    make_engine,
    register_engine,
    run_phase_with,
    verify_engines_agree,
)
from repro.runtime.partition import block_partition, hash_partition
from tests.conftest import component_seeds, make_connected_graph
from tests.test_engine_conformance import assert_conformance, solve_with

ENGINES = ("async-heap", "bsp", "bsp-batched")

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def partitioned_instance(draw, max_vertices=22, max_weight=8):
    """A random connected weighted graph, a seed set and a partition
    configuration (rank count, block/hash, optional delegates).

    A path backbone keeps the graph connected; ``max_weight=1``
    degenerates to unit weights — the tie-heaviest case for the
    per-superstep lexicographic reduction the batched engine performs.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    backbone = [(i, i + 1) for i in range(n - 1)]
    n_chords = draw(st.integers(min_value=0, max_value=2 * n))
    chords = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=n_chords,
            max_size=n_chords,
        )
    )
    edges = backbone + [e for e in chords if e[0] != e[1]]
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_weight),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    graph = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64), weights)
    k = draw(st.integers(min_value=1, max_value=min(5, n)))
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    n_ranks = draw(st.integers(min_value=1, max_value=7))
    partition_fn = draw(st.sampled_from([block_partition, hash_partition]))
    delegate_threshold = draw(st.sampled_from([None, 3, 6]))
    return graph, sorted(seeds), n_ranks, partition_fn, delegate_threshold


def assert_engine_parity(graph, seeds, n_ranks=6, **cfg):
    """The full cross-engine contract on one solver instance — routed
    through the canonical harness (``tests/test_engine_conformance.py``)
    restricted to the in-process trio this module focuses on."""
    return assert_conformance(
        graph, seeds, n_ranks=n_ranks, engines=ENGINES, **cfg
    )


class TestEngineParity:
    @PROPERTY
    @given(partitioned_instance())
    def test_random_partitioned_graphs(self, case):
        graph, seeds, n_ranks, partition_fn, delegate_threshold = case
        partition = "hash" if partition_fn is hash_partition else "block"
        assert_engine_parity(
            graph,
            seeds,
            n_ranks=n_ranks,
            partition=partition,
            delegate_threshold=delegate_threshold,
        )

    @PROPERTY
    @given(partitioned_instance(max_weight=1))
    def test_unit_weight_tie_heavy_graphs(self, case):
        graph, seeds, n_ranks, partition_fn, delegate_threshold = case
        partition = "hash" if partition_fn is hash_partition else "block"
        assert_engine_parity(
            graph,
            seeds,
            n_ranks=n_ranks,
            partition=partition,
            delegate_threshold=delegate_threshold,
        )

    @pytest.mark.parametrize("trial", range(3))
    def test_generator_graphs(self, trial):
        g = make_connected_graph(45, 120, seed=trial + 700)
        assert_engine_parity(g, component_seeds(g, 5, seed=trial))

    def test_fifo_discipline_parity(self, random_graph):
        """Under FIFO the batched engine falls back to the per-message
        loop, so the whole contract still holds."""
        seeds = component_seeds(random_graph, 4, seed=11)
        assert_engine_parity(random_graph, seeds, discipline="fifo")

    def test_delegates_parity(self, random_graph):
        seeds = component_seeds(random_graph, 5, seed=12)
        assert_engine_parity(random_graph, seeds, delegate_threshold=5)

    def test_voronoi_program_state_identical(self, random_graph):
        """Program-level contract, independent of the solver: identical
        (src, dist) fixpoint, and exact counter parity for the BSP pair."""
        seeds = np.asarray(component_seeds(random_graph, 4, seed=13))
        part = block_partition(random_graph, 5)
        results = verify_engines_agree(
            part,
            lambda: VoronoiProgram(part),
            lambda prog: prog.initial_messages(seeds),
            lambda prog: (prog.src, prog.dist),
        )
        assert set(results) == set(available_engines())
        bsp, batched = results["bsp"], results["bsp-batched"]
        assert bsp.stats.n_messages == batched.stats.n_messages
        assert bsp.n_supersteps == batched.n_supersteps
        assert results["async-heap"].n_supersteps is None

    def test_verify_engines_agree_detects_divergence(self, random_graph):
        part = block_partition(random_graph, 4)
        seeds = np.asarray(component_seeds(random_graph, 3, seed=14))

        class Corrupted(VoronoiProgram):
            pass

        def factory():
            # corrupt the state the comparison reads, per engine
            prog = Corrupted(part)
            return prog

        with pytest.raises(AssertionError, match="disagrees"):
            verify_engines_agree(
                part,
                factory,
                lambda prog: prog.initial_messages(seeds),
                # a state that differs on every extraction, so the
                # cross-engine comparison must trip — deterministically
                lambda prog, _c=iter(range(99)): (np.arange(5) + next(_c),),
            )


class TestBatchedEngine:
    def test_supports_batch_detection(self, random_graph):
        part = block_partition(random_graph, 2)
        assert supports_batch(VoronoiProgram(part))

        class Plain:
            def priority(self, payload):
                return 0.0

        assert not supports_batch(Plain())

    def test_fallback_for_non_batch_program(self, random_graph):
        """A program without the batch protocol runs through the scalar
        superstep loop with identical results."""

        class EchoProgram:
            def __init__(self):
                self.visits = []

            def priority(self, payload):
                return float(payload[0])

            def visit(self, vertex, payload, emit):
                self.visits.append(vertex)
                if payload[0] > 0 and vertex + 1 < 16:
                    emit(vertex + 1, (payload[0] - 1,))

            def visit_rank(self, rank, payload, emit):
                raise AssertionError("not used")

        from repro.graph.generators import grid_graph

        part = block_partition(grid_graph(1, 16), 4)
        stats = {}
        visits = {}
        for cls in (BSPEngine, BSPBatchedEngine):
            prog = EchoProgram()
            stats[cls] = cls(part).run_phase("chain", prog, [(0, (7,))])
            visits[cls] = prog.visits
        assert visits[BSPEngine] == visits[BSPBatchedEngine]
        assert (
            stats[BSPEngine].n_messages == stats[BSPBatchedEngine].n_messages
        )

    def test_max_events_guard(self, random_graph):
        from repro.errors import SimulationError

        seeds = component_seeds(random_graph, 4, seed=15)
        for engine in ("bsp", "bsp-batched"):
            with pytest.raises(SimulationError, match="exceeded"):
                solve_with(random_graph, seeds, engine, max_events=3)

    def test_max_events_zero_means_uncapped(self, random_graph):
        """Legacy semantics: a falsy cap disables the guard entirely."""
        seeds = component_seeds(random_graph, 4, seed=15)
        for engine in ENGINES:
            res = solve_with(random_graph, seeds, engine, max_events=0)
            assert res.total_distance > 0

    def test_batched_is_a_bsp_engine(self, random_graph):
        part = block_partition(random_graph, 3)
        engine = make_engine("bsp-batched", part)
        assert isinstance(engine, BSPBatchedEngine)
        assert isinstance(engine, BSPEngine)


class TestRegistry:
    def test_default_listed_first(self):
        names = available_engines()
        assert names[0] == DEFAULT_ENGINE == "async-heap"
        assert {"bsp", "bsp-batched"} <= set(names)
        # deterministic iteration order (the reproducible-bench clause):
        # default first, everything else alphabetical
        assert names[1:] == sorted(names[1:])

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="engine"):
            get_engine("mpi")

    def test_engine_help_covers_all(self):
        help_by_name = engine_help()
        assert set(help_by_name) == set(available_engines())
        assert all(help_by_name.values())

    def test_make_engine_types(self, random_graph):
        part = block_partition(random_graph, 2)
        assert isinstance(make_engine("async-heap", part), AsyncEngine)
        assert isinstance(make_engine("bsp", part), BSPEngine)

    def test_register_and_shadow(self, random_graph):
        calls = []

        @register_engine("_test-probe", "test-only probe")
        def probe(partition, machine=None, discipline="priority", **kw):
            calls.append(partition.n_ranks)
            return BSPEngine(partition, machine, discipline)

        try:
            part = block_partition(random_graph, 3)
            prog = VoronoiProgram(part)
            seeds = np.asarray(component_seeds(random_graph, 3, seed=16))
            res = run_phase_with(
                "_test-probe", part, prog, list(prog.initial_messages(seeds))
            )
            assert calls == [3]
            assert res.engine == "_test-probe"
            assert res.elapsed_s >= 0
            assert res.n_supersteps >= 1
        finally:
            from repro.runtime import engines as mod

            mod._REGISTRY.pop("_test-probe")
            mod._HELP.pop("_test-probe")


class TestSolverConfig:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            SolverConfig(engine="mpi")

    def test_default_engine(self):
        assert SolverConfig().engine == "async-heap"


class TestSequentialDefaultBackend:
    def test_default_is_vectorised(self, random_graph):
        """ROADMAP lever from PR 1: the shared-memory entry point
        defaults to the delta-numpy kernel (the parameter is now spelled
        ``voronoi_backend``, matching the SolverConfig field; the
        default is the vectorised kernel)."""
        import inspect

        from repro.core.sequential import sequential_steiner_tree

        sig = inspect.signature(sequential_steiner_tree)
        assert "voronoi_backend" in sig.parameters
        seeds = component_seeds(random_graph, 4, seed=17)
        res = sequential_steiner_tree(random_graph, seeds)
        assert res.provenance["backend"] == "delta-numpy"

    def test_default_matches_reference(self, random_graph):
        from repro.core.sequential import sequential_steiner_tree

        seeds = component_seeds(random_graph, 5, seed=17)
        default = sequential_steiner_tree(random_graph, seeds)
        reference = sequential_steiner_tree(
            random_graph, seeds, voronoi_backend="dijkstra"
        )
        assert np.array_equal(default.edges, reference.edges)
        assert default.total_distance == reference.total_distance


class TestExperimentThreading:
    def test_shared_solve_accepts_engine(self):
        from repro.harness.experiments._shared import solve

        ref = solve("CTS", 4, n_ranks=4)
        batched = solve("CTS", 4, n_ranks=4, engine="bsp-batched")
        assert np.array_equal(ref.edges, batched.edges)

    def test_fig5_run_pair_accepts_engine(self):
        from repro.harness.experiments.fig5_fifo_vs_priority import run_pair

        fifo, prio = run_pair("CTS", 4, 4, engine="bsp-batched")
        assert np.array_equal(fifo.edges, prio.edges)

    def test_ablation_covers_all_engines(self):
        from repro.harness.experiments.ablation_async_vs_bsp import run

        rep = run(quick=True)
        for cell in rep.data.values():
            assert cell["bsp_messages"] == cell["bsp_batched_messages"]
            assert cell["batch_wall_speedup"] > 0

    def test_run_experiment_forwards_engine_kwarg(self):
        from repro.harness.registry import run_experiment

        # fig5 accepts engine=; table3 does not — both must run
        rep = run_experiment("fig5", quick=True, engine="bsp-batched")
        assert "runtime engine: bsp-batched" in " ".join(rep.notes)
        run_experiment("table3", quick=True, engine="bsp-batched")


class TestCLI:
    def test_engines_list(self, capsys):
        from repro.harness.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in available_engines():
            assert name in out

    def test_engines_bench(self, capsys):
        from repro.harness.cli import main

        assert main(
            ["engines", "--bench", "--dataset", "CTS", "--seeds", "4",
             "--ranks", "4"]
        ) == 0
        assert "identical tree" in capsys.readouterr().out

    def test_solve_with_engine(self, capsys):
        from repro.harness.cli import main

        rc = main(
            ["solve", "--dataset", "CTS", "--seeds", "5",
             "--engine", "bsp-batched"]
        )
        assert rc == 0
        assert "SteinerTree" in capsys.readouterr().out

    def test_solve_rejects_unknown_engine(self, capsys):
        from repro.harness.cli import main

        rc = main(
            ["solve", "--dataset", "CTS", "--seeds", "5", "--engine", "mpi"]
        )
        assert rc == 2
        assert "engine" in capsys.readouterr().err

    def test_run_rejects_unknown_engine(self, capsys):
        from repro.harness.cli import main

        rc = main(["run", "table3", "--quick", "--engine", "bspp"])
        assert rc == 2
        assert "engine" in capsys.readouterr().err

    def test_run_notes_engine_unaware_experiments(self, capsys):
        from repro.harness.cli import main

        assert main(["run", "table3", "--quick", "--engine", "bsp"]) == 0
        assert "does not thread --engine" in capsys.readouterr().err
