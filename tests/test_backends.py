"""The multi-source backend table and cross-backend equivalence.

The backends' contract (``repro.shortest_paths.backends``): every
backend returns the *identical* ``(dist, src, canonical pred)`` triple
— the lexicographic ``(dist, owner)`` fixpoint with the canonical
predecessor assignment.  Property tests drive every entry of
``BACKENDS``, and the two §III ablation kernels outside the table, over
random weighted graphs, including tie-heavy unit-weight graphs where the
smaller-seed-id rule does all the work, and assert bit-equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SolverConfig
from repro.core.sequential import sequential_steiner_tree
from repro.core.solver import distributed_steiner_tree
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph
from repro.shortest_paths.backends import BACKENDS, compute_multisource, get_backend
from repro.shortest_paths.multisource import (
    compute_voronoi_cells_delta_stepping,
    compute_voronoi_cells_spfa,
)
from repro.shortest_paths.vectorized import (
    compute_voronoi_cells_delta_numpy,
    default_delta,
)
from repro.shortest_paths.voronoi import (
    VoronoiDiagram,
    canonicalize_predecessors,
    compute_voronoi_cells,
)
from repro.validation import validate_voronoi_diagram
from tests.conftest import (
    astronomical_chain,
    component_seeds,
    make_connected_graph,
    packed_key_guard,
)

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def graph_and_seeds(draw, max_vertices=24, max_weight=8):
    """A random weighted graph (possibly disconnected) plus a seed set.

    A path backbone keeps most of the graph connected while random
    chords add cycles; ``max_weight=1`` degenerates to unit weights,
    the tie-heaviest case for the owner tie-break.
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
    return graph, sorted(seeds)


#: the §III ablation kernels: outside the table, held to its contract
ABLATION_KERNELS = {
    "spfa": compute_voronoi_cells_spfa,
    "delta-stepping": compute_voronoi_cells_delta_stepping,
}


def assert_all_backends_agree(graph, seeds):
    """Every backend and ablation kernel returns the reference diagram
    bit-for-bit; returns the reference."""
    ref = compute_voronoi_cells(graph, seeds)
    ref_pred = canonicalize_predecessors(graph, ref.src, ref.dist)
    for name, kernel in {**BACKENDS, **ABLATION_KERNELS}.items():
        vd = kernel(graph, seeds)
        assert np.array_equal(vd.dist, ref.dist), name
        assert np.array_equal(vd.src, ref.src), name
        assert np.array_equal(vd.pred, ref_pred), name
        validate_voronoi_diagram(graph, vd)
    return ref


class TestBackendEquivalence:
    @PROPERTY
    @given(graph_and_seeds())
    def test_random_weighted_graphs(self, case):
        graph, seeds = case
        assert_all_backends_agree(graph, seeds)

    @PROPERTY
    @given(graph_and_seeds(max_weight=1))
    def test_unit_weight_tie_heavy_graphs(self, case):
        graph, seeds = case
        assert_all_backends_agree(graph, seeds)

    @pytest.mark.parametrize("seed", range(3))
    def test_generator_graphs(self, seed):
        g = make_connected_graph(45, 120, seed=seed + 900)
        assert_all_backends_agree(g, component_seeds(g, 6, seed=seed))

    def test_grid_many_seeds(self):
        g = grid_graph(8, 8)
        assert_all_backends_agree(g, [0, 7, 27, 36, 56, 63])

    def test_astronomical_weights_stay_exact(self):
        # path sums beyond float64's exact-integer range (2**53): every
        # backend must stay in integer-exact arithmetic rather than
        # crash or silently break the bit-for-bit contract
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        w = 2**54
        graph = CSRGraph.from_edges(
            5, np.asarray(edges, dtype=np.int64), [w, w + 1, w, w + 3, w, w + 2]
        )
        res = assert_all_backends_agree(graph, [0, 4])
        assert res.dist.max() < np.iinfo(np.int64).max  # all reached

    def test_packed_key_overflow_fallback(self):
        # distances past the packed (dist, owner) key's guard: delta-numpy
        # reduces by sorting there and must still match the reference,
        # the middle vertex's equal-distance tie included
        graph = astronomical_chain()
        n = graph.n_vertices
        res = assert_all_backends_agree(graph, [0, n - 1])
        assert res.dist.max() > packed_key_guard(n)
        assert res.src[n // 2] == 0


class TestVectorizedDeltaStepping:
    @pytest.mark.parametrize("delta", [1, 3, 17, 10**6, None])
    def test_delta_insensitive(self, random_graph, delta):
        seeds = component_seeds(random_graph, 4, seed=2)
        ref = compute_voronoi_cells(random_graph, seeds)
        vd = compute_voronoi_cells_delta_numpy(random_graph, seeds, delta)
        assert np.array_equal(ref.dist, vd.dist)
        assert np.array_equal(ref.src, vd.src)

    def test_bad_delta_rejected(self, random_graph):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            compute_voronoi_cells_delta_numpy(random_graph, [0], 0)

    def test_default_delta_positive(self, random_graph, small_grid):
        assert default_delta(random_graph) >= 1
        assert default_delta(small_grid) >= 1

    def test_single_seed_matches_dijkstra(self, random_graph):
        from repro.shortest_paths.dijkstra import dijkstra

        dist, _ = dijkstra(random_graph, 0)
        vd = compute_voronoi_cells_delta_numpy(random_graph, [0])
        assert np.array_equal(vd.dist, dist)


class TestRegistry:
    """The backend table: its names, order and lookup."""

    def test_reference_listed_first(self):
        # exactly the reference oracle and the fastest measured path
        assert list(BACKENDS) == ["dijkstra", "delta-numpy"]

    def test_unknown_backend_raises(self):
        with pytest.raises(
            ValueError,
            match=r"^unknown shortest-path backend 'cuda'; "
            r"available: \['dijkstra', 'delta-numpy'\]$",
        ):
            get_backend("cuda")

    def test_multisource_result_accessors(self, random_graph):
        # compute_multisource returns the named backend's diagram itself,
        # the reference backend by default
        seeds = component_seeds(random_graph, 3, seed=5)
        res = compute_multisource(random_graph, seeds)
        assert isinstance(res, VoronoiDiagram)
        assert np.array_equal(res.seeds, sorted(seeds))
        fast = compute_multisource(random_graph, seeds, backend="delta-numpy")
        for field in ("dist", "src", "pred"):
            assert np.array_equal(getattr(res, field), getattr(fast, field)), field


class TestSolverIntegration:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SolverConfig(voronoi_backend="cuda")

    def test_unknown_backend_rejected(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=5)
        with pytest.raises(ValueError, match="backend"):
            sequential_steiner_tree(random_graph, seeds, voronoi_backend="cuda")

    @pytest.mark.parametrize("backend", ["dijkstra", "delta-numpy"])
    def test_distributed_tree_identical_under_backends(
        self, random_graph, backend
    ):
        seeds = component_seeds(random_graph, 5, seed=8)
        simulated = distributed_steiner_tree(random_graph, seeds)
        fast = distributed_steiner_tree(
            random_graph, seeds, config=SolverConfig(voronoi_backend=backend)
        )
        assert np.array_equal(simulated.edges, fast.edges)
        assert simulated.total_distance == fast.total_distance
        # the fast path skips the message simulation entirely
        assert fast.phases[0].n_messages == 0

    @pytest.mark.parametrize("backend", ["dijkstra", "delta-numpy"])
    def test_sequential_tree_under_backends(self, random_graph, backend):
        seeds = component_seeds(random_graph, 5, seed=9)
        ref = sequential_steiner_tree(random_graph, seeds)
        alt = sequential_steiner_tree(random_graph, seeds, voronoi_backend=backend)
        assert np.array_equal(ref.edges, alt.edges)


class TestCLI:
    def test_backends_list(self, capsys):
        from repro.harness.cli import main

        assert main(["backends"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # one line per backend, in table order
        assert [line.split()[0] for line in lines] == list(BACKENDS)

    def test_solve_with_backend(self, capsys):
        from repro.harness.cli import main

        rc = main(
            [
                "solve",
                "--dataset",
                "CTS",
                "--seeds",
                "5",
                "--backend",
                "delta-numpy",
            ]
        )
        assert rc == 0
        assert "SteinerTree" in capsys.readouterr().out
