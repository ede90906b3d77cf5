"""Integration tests for the solvers: sequential reference vs
distributed simulation, across configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.result import PHASE_NAMES
from repro.core.sequential import sequential_steiner_tree
from repro.core.solver import DistributedSteinerSolver, distributed_steiner_tree
from repro.errors import DisconnectedSeedsError, GraphError
from repro.graph.csr import CSRGraph
from repro.runtime.engines import ENGINES
from repro.shortest_paths.apsp import seed_pairs_apsp
from repro.shortest_paths.backends import BACKENDS, compute_multisource
from repro.shortest_paths.dijkstra import INF, dijkstra, dijkstra_to_targets
from repro.shortest_paths.multisource import (
    compute_voronoi_cells_delta_stepping,
    compute_voronoi_cells_spfa,
)
from repro.shortest_paths.voronoi import compute_voronoi_cells
from repro.validation import validate_steiner_tree
from tests.conftest import component_seeds, make_connected_graph, near_bound_graph


class TestSequentialReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_trees(self, seed):
        g = make_connected_graph(40, 110, seed=seed)
        seeds = component_seeds(g, 5, seed=seed)
        res = sequential_steiner_tree(g, seeds)
        validate_steiner_tree(g, seeds, res.edges)
        assert res.total_distance == int(res.edges[:, 2].sum())

    def test_single_seed(self, random_graph):
        res = sequential_steiner_tree(random_graph, [3])
        assert res.n_edges == 0
        assert res.total_distance == 0
        assert list(res.vertices()) == [3]

    def test_two_seeds_equals_shortest_path(self, random_graph):
        seeds = component_seeds(random_graph, 2, seed=11)
        res = sequential_steiner_tree(random_graph, seeds)
        dist, _ = dijkstra(random_graph, int(seeds[0]))
        assert res.total_distance == int(dist[seeds[1]])

    def test_all_vertices_as_seeds_is_mst(self, random_graph):
        import networkx as nx

        seeds = np.arange(random_graph.n_vertices)
        res = sequential_steiner_tree(random_graph, seeds)
        t = nx.minimum_spanning_tree(random_graph.to_networkx(), weight="weight")
        mst_w = sum(d["weight"] for _, _, d in t.edges(data=True))
        assert res.total_distance == mst_w

    def test_disconnected_seeds_raise(self):
        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)], [1, 1])
        with pytest.raises(DisconnectedSeedsError):
            sequential_steiner_tree(g, [0, 3])

    def test_diagram_attached(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=12)
        res = sequential_steiner_tree(random_graph, seeds)
        assert res.diagram is not None
        assert res.diagram.src.size == random_graph.n_vertices


class TestDistributedMatchesSequential:
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_trees(self, seed):
        g = make_connected_graph(40, 110, seed=seed + 200)
        seeds = component_seeds(g, 5, seed=seed)
        ref = sequential_steiner_tree(g, seeds)
        res = distributed_steiner_tree(g, seeds, config=SolverConfig(n_ranks=4))
        assert np.array_equal(ref.edges, res.edges)
        assert ref.total_distance == res.total_distance

    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {"n_ranks": 1},
            {"n_ranks": 7},
            {"n_ranks": 4, "discipline": "fifo"},
            {"n_ranks": 4, "partition": "hash"},
            {"n_ranks": 4, "delegate_threshold": 8},
            {"n_ranks": 4, "engine": "bsp"},
        ],
    )
    def test_config_invariance(self, random_graph, config_kwargs):
        seeds = component_seeds(random_graph, 5, seed=3)
        ref = sequential_steiner_tree(random_graph, seeds)
        res = distributed_steiner_tree(
            random_graph, seeds, config=SolverConfig(**config_kwargs)
        )
        assert np.array_equal(ref.edges, res.edges)

    def test_run_to_run_determinism(self, skewed_graph):
        seeds = component_seeds(skewed_graph, 6, seed=4)
        for backend in (None, "delta-numpy"):
            solver = DistributedSteinerSolver(
                skewed_graph, SolverConfig(n_ranks=4, voronoi_backend=backend)
            )
            a = solver.solve(seeds)
            b = solver.solve(seeds)
            assert np.array_equal(a.edges, b.edges)
            assert a.message_count() == b.message_count()
            assert a.sim_time() == pytest.approx(b.sim_time())
            if backend is not None:
                # a backend sweep is not simulated: no host seconds leak
                # into the model time
                assert a.phases[0].sim_time == 0.0


class TestDistributedResult:
    def test_phase_names_and_order(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=5)
        res = distributed_steiner_tree(random_graph, seeds)
        assert tuple(p.name for p in res.phases) == PHASE_NAMES
        assert res.sim_time() > 0

    def test_phase_time_lookup(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=5)
        res = distributed_steiner_tree(random_graph, seeds)
        assert res.phase_time("Voronoi Cell") > 0
        with pytest.raises(KeyError):
            res.phase_time("nonsense")

    def test_memory_report_attached(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=6)
        res = distributed_steiner_tree(random_graph, seeds)
        assert res.memory is not None
        assert res.memory.total_bytes > 0

    def test_diagram_on_request(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=6)
        without = distributed_steiner_tree(random_graph, seeds)
        assert without.diagram is None
        with_d = distributed_steiner_tree(
            random_graph, seeds, config=SolverConfig(collect_diagram=True)
        )
        assert with_d.diagram is not None

    def test_steiner_vertices_disjoint_from_seeds(self, random_graph):
        seeds = component_seeds(random_graph, 5, seed=7)
        res = distributed_steiner_tree(random_graph, seeds)
        assert not set(res.steiner_vertices().tolist()) & set(seeds.tolist())

    def test_to_networkx(self, random_graph):
        import networkx as nx

        seeds = component_seeds(random_graph, 4, seed=8)
        res = distributed_steiner_tree(random_graph, seeds)
        t = res.to_networkx()
        assert nx.is_tree(t)
        assert all(int(s) in t for s in seeds)

    def test_summary_string(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=9)
        res = distributed_steiner_tree(random_graph, seeds)
        assert "SteinerTree" in res.summary()

    def test_disconnected_seeds_raise(self):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)], [1, 1, 1, 1])
        with pytest.raises(DisconnectedSeedsError) as exc:
            distributed_steiner_tree(g, [0, 5], config=SolverConfig(n_ranks=2))
        assert exc.value.unreached  # names the unreachable seeds

    def test_wall_time_recorded(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=10)
        res = distributed_steiner_tree(random_graph, seeds)
        assert res.wall_time_s > 0


class TestSolverConfig:
    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            SolverConfig(n_ranks=0)

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            SolverConfig(partition="triangular")

    def test_discipline_coercion(self):
        from repro.runtime.queues import QueueDiscipline

        cfg = SolverConfig(discipline="fifo")
        assert cfg.discipline is QueueDiscipline.FIFO


class TestInt64DistanceRange:
    """A graph whose distances could overflow int64 is refused before any
    sweep or single-source kernel runs; one just under the bound solves
    exactly on every path."""

    @staticmethod
    def path(weight):
        return CSRGraph.from_edges(4, [[0, 1], [1, 2], [2, 3]], [weight] * 3)

    def test_overflowing_graph_refused_on_every_path(self):
        g = self.path(2**62)  # the path sums 3 * 2**62 wrap int64
        with pytest.raises(GraphError, match="overflow"):
            sequential_steiner_tree(g, [0, 3], voronoi_backend="dijkstra")
        for backend in BACKENDS:
            with pytest.raises(GraphError, match="overflow"):
                compute_multisource(g, [0, 3], backend=backend)
        for engine in ENGINES:
            for backend in (None, "delta-numpy"):
                solver = DistributedSteinerSolver(
                    g, engine=engine, voronoi_backend=backend
                )
                with pytest.raises(GraphError, match="overflow"):
                    solver.solve([0, 3])
        # the single-source kernels behind the KMB baseline and Table I,
        # and the Voronoi kernels that cross-check them from one seed
        with pytest.raises(GraphError, match="overflow"):
            dijkstra(g, 0)
        for kernel in (
            compute_voronoi_cells_spfa,
            compute_voronoi_cells_delta_stepping,
            compute_voronoi_cells,
        ):
            with pytest.raises(GraphError, match="overflow"):
                kernel(g, [0])
        with pytest.raises(GraphError, match="overflow"):
            dijkstra_to_targets(g, 0, [3])
        with pytest.raises(GraphError, match="overflow"):
            seed_pairs_apsp(g, [0, 3])

    def test_graph_at_the_edge_may_be_refused(self):
        # its distances (at most 3 * 2**61) fit, but the conservative
        # bound, weight sum plus largest weight, reaches 2**63
        with pytest.raises(GraphError, match="overflow"):
            sequential_steiner_tree(self.path(2**61), [0, 3])
        res = sequential_steiner_tree(self.path(2**61 - 1), [0, 3])
        assert res.total_distance == 3 * (2**61 - 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_near_bound_matches_dijkstra_everywhere(self, seed):
        g = near_bound_graph(seed)
        assert np.iinfo(np.int64).max // 2 < g.distance_bound() < np.iinfo(np.int64).max
        seeds = component_seeds(g, 4, seed=seed)
        ref_vd = compute_voronoi_cells(g, seeds)
        ref = sequential_steiner_tree(g, seeds, voronoi_backend="dijkstra")
        validate_steiner_tree(g, seeds, ref.edges)
        assert ref.total_distance == sum(int(w) for w in ref.edges[:, 2])
        results = [sequential_steiner_tree(g, seeds, voronoi_backend="delta-numpy")]
        for engine in ENGINES:
            for backend in (None, "delta-numpy"):
                results.append(
                    DistributedSteinerSolver(
                        g, engine=engine, voronoi_backend=backend, collect_diagram=True
                    ).solve(seeds)
                )
        for res in results:
            assert np.array_equal(res.edges, ref.edges)
            assert res.total_distance == ref.total_distance
            assert np.array_equal(res.diagram.dist, ref_vd.dist)
            assert np.array_equal(res.diagram.src, ref_vd.src)

    @pytest.mark.parametrize("seed", range(3))
    def test_near_bound_single_source_kernels_agree(self, seed):
        g = near_bound_graph(seed)
        seeds = component_seeds(g, 4, seed=seed)
        source = int(seeds[0])
        dist, _ = dijkstra(g, source)
        assert (dist[dist != INF] >= 0).all()
        for kernel in (compute_voronoi_cells_spfa, compute_voronoi_cells_delta_stepping):
            assert np.array_equal(kernel(g, [source]).dist, dist), kernel.__name__
        assert np.array_equal(dijkstra_to_targets(g, source, seeds)[0][seeds], dist[seeds])
        assert np.array_equal(seed_pairs_apsp(g, seeds)[0], dist[seeds])
        assert np.array_equal(compute_voronoi_cells(g, [source]).dist, dist)
