"""Property-based tests (Hypothesis) over the core invariants.

Strategy: generate random connected weighted graphs + seed sets, then
assert the algebraic/structural properties the paper's correctness rests
on.  These complement the example-based tests with adversarial inputs
(parallel edges, weight ties, stars, paths...).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_steiner_tree
from repro.core.config import SolverConfig
from repro.core.sequential import sequential_steiner_tree
from repro.api import solve
from repro.graph.connectivity import largest_component_vertices
from repro.graph.csr import CSRGraph
from repro.mst.boruvka import boruvka_mst
from repro.mst.kruskal import kruskal_mst
from repro.mst.prim import prim_mst
from repro.shortest_paths.dijkstra import dijkstra
from repro.shortest_paths.multisource import (
    compute_voronoi_cells_delta_stepping,
    compute_voronoi_cells_spfa,
)
from repro.shortest_paths.voronoi import compute_voronoi_cells
from repro.validation import validate_steiner_tree, validate_voronoi_diagram

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def connected_graph_and_seeds(draw, max_vertices=24, max_seeds=5, max_weight=12):
    """A connected weighted graph (path backbone + random chords, so
    connectivity is guaranteed) and a seed set."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    # backbone path keeps the graph connected
    edges = [(i, i + 1) for i in range(n - 1)]
    n_extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(n_extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    weights = [
        draw(st.integers(min_value=1, max_value=max_weight)) for _ in edges
    ]
    g = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64), weights)
    k = draw(st.integers(min_value=1, max_value=min(max_seeds, n)))
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return g, sorted(seeds)


def prune_to_seeds(edges, seeds):
    """Delete non-seed leaves of a tree until every leaf is a seed."""
    edges = [tuple(int(x) for x in e) for e in edges]
    while True:
        degree = np.bincount(
            [x for u, v, _ in edges for x in (u, v)], minlength=1
        )

        def bare_leaf(x):
            return degree[x] == 1 and x not in seeds

        kept = [e for e in edges if not (bare_leaf(e[0]) or bare_leaf(e[1]))]
        if len(kept) == len(edges):
            return kept
        edges = kept


#: smallest input where the tree costs more than an MST of the whole
#: graph (10 > 9): the 0-1 distance-graph edge ties between the direct
#: edge and 0-2-1, and the tie-break takes the direct edge
_TREE_ABOVE_GRAPH_MST = (
    CSRGraph.from_edges(
        5,
        np.asarray([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], dtype=np.int64),
        [7, 6, 1, 1, 1],
    ),
    [0, 1, 4],
)


class TestShortestPathProperties:
    @SLOW
    @given(connected_graph_and_seeds())
    def test_sssp_kernels_agree(self, gs):
        g, seeds = gs
        src = seeds[0]
        d1, _ = dijkstra(g, src)
        assert np.array_equal(compute_voronoi_cells_spfa(g, [src]).dist, d1)
        assert np.array_equal(compute_voronoi_cells_delta_stepping(g, [src]).dist, d1)

    @SLOW
    @given(connected_graph_and_seeds())
    def test_triangle_inequality_over_edges(self, gs):
        g, seeds = gs
        dist, _ = dijkstra(g, seeds[0])
        for u, v, w in g.iter_edges():
            assert dist[v] <= dist[u] + w
            assert dist[u] <= dist[v] + w


class TestVoronoiProperties:
    @SLOW
    @given(connected_graph_and_seeds())
    def test_diagram_invariants(self, gs):
        g, seeds = gs
        vd = compute_voronoi_cells(g, seeds)
        validate_voronoi_diagram(g, vd)

    @SLOW
    @given(connected_graph_and_seeds())
    def test_cells_cover_connected_graph(self, gs):
        g, seeds = gs
        vd = compute_voronoi_cells(g, seeds)
        # backbone path makes g connected: every vertex must be claimed
        assert vd.reached().all()

    @SLOW
    @given(connected_graph_and_seeds())
    def test_dist_below_any_single_seed_sssp(self, gs):
        g, seeds = gs
        vd = compute_voronoi_cells(g, seeds)
        for s in seeds:
            d, _ = dijkstra(g, s)
            assert (vd.dist <= d).all()


class TestMSTProperties:
    @SLOW
    @given(connected_graph_and_seeds())
    def test_kernels_agree_on_weight(self, gs):
        g, _ = gs
        src, dst, w = g.edge_array()
        weights = {
            int(w[prim_mst(g.n_vertices, src, dst, w)].sum()),
            int(w[kruskal_mst(g.n_vertices, src, dst, w)].sum()),
            int(w[boruvka_mst(g.n_vertices, src, dst, w)].sum()),
        }
        assert len(weights) == 1

    @SLOW
    @given(connected_graph_and_seeds())
    def test_mst_has_n_minus_1_edges(self, gs):
        g, _ = gs
        src, dst, w = g.edge_array()
        idx = prim_mst(g.n_vertices, src, dst, w)
        assert idx.size == g.n_vertices - 1


class TestSteinerTreeProperties:
    @SLOW
    @given(connected_graph_and_seeds())
    def test_sequential_tree_is_valid(self, gs):
        g, seeds = gs
        res = sequential_steiner_tree(g, seeds)
        validate_steiner_tree(g, seeds, res.edges)

    @SLOW
    @given(connected_graph_and_seeds())
    def test_distributed_equals_sequential(self, gs):
        g, seeds = gs
        ref = sequential_steiner_tree(g, seeds)
        res = solve(g, seeds, config=SolverConfig(n_ranks=3))
        assert np.array_equal(ref.edges, res.edges)

    @SLOW
    @given(connected_graph_and_seeds(max_vertices=14, max_seeds=4))
    def test_two_approximation_bound(self, gs):
        g, seeds = gs
        opt = exact_steiner_tree(g, seeds)
        res = sequential_steiner_tree(g, seeds)
        assert opt.total_distance <= res.total_distance
        k = len(seeds)
        if k > 1:
            # paper bound: 2 (1 - 1/l) <= 2 (1 - 1/|S|) is NOT the right
            # direction; use the always-valid <= 2 (1 - 1/|S|)^{-1}-free
            # form: D(GS) <= 2 * Dmin
            assert res.total_distance <= 2 * opt.total_distance

    @SLOW
    @given(connected_graph_and_seeds())
    @example(_TREE_ABOVE_GRAPH_MST)
    def test_tree_weight_within_kmb_bound_of_pruned_mst(self, gs):
        # KMB: D(GS) <= 2 (1 - 1/l) w(T) for any tree T spanning the
        # seeds whose l leaves are all seeds.  An MST of G pruned of its
        # non-seed leaves is such a tree with l <= k, so
        # k D(GS) <= 2 (k - 1) w(T).  (An MST of the whole graph bounds
        # nothing: the pinned example's tree costs 10 against an MST of 9.)
        g, seeds = gs
        src, dst, w = g.edge_array()
        mst = prim_mst(g.n_vertices, src, dst, w)
        pruned = prune_to_seeds(zip(src[mst], dst[mst], w[mst]), set(seeds))
        pruned_w = sum(e[2] for e in pruned)
        k = len(seeds)
        res = sequential_steiner_tree(g, seeds)
        assert k * res.total_distance <= 2 * (k - 1) * pruned_w

    @SLOW
    @given(connected_graph_and_seeds())
    def test_monotone_in_seed_subsets(self, gs):
        # adding seeds can only grow the optimal-ish tree weight class;
        # we check the weaker, always-true containment property: a tree
        # for the superset also connects the subset, so D(subset tree)
        # <= D(superset tree) does NOT hold in general for heuristics —
        # instead assert subset tree spans its seeds (validity only).
        g, seeds = gs
        if len(seeds) > 2:
            res = sequential_steiner_tree(g, seeds[:-1])
            validate_steiner_tree(g, seeds[:-1], res.edges)


class TestCSRProperties:
    @SLOW
    @given(connected_graph_and_seeds())
    def test_io_round_trip(self, gs):
        import io

        import numpy as np

        g, _ = gs
        # in-memory npz round trip (same arrays the file format stores)
        buf = io.BytesIO()
        np.savez(buf, indptr=g.indptr, indices=g.indices, weights=g.weights)
        buf.seek(0)
        with np.load(buf) as data:
            from repro.graph.csr import CSRGraph

            back = CSRGraph(data["indptr"], data["indices"], data["weights"])
        assert back == g

    @SLOW
    @given(connected_graph_and_seeds())
    def test_degree_sum_equals_arcs(self, gs):
        g, _ = gs
        assert int(g.degree().sum()) == g.n_arcs

    @SLOW
    @given(connected_graph_and_seeds())
    def test_largest_component_is_everything(self, gs):
        g, _ = gs
        assert largest_component_vertices(g).size == g.n_vertices
