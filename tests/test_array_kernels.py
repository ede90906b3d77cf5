"""Oracle tests for the whole-array kernels of solve phases 2-6.

Each kernel is checked against the plain formulation it replaced, kept
here as the reference: the binary-heap Prim, the four-key ``lexsort``
distance-graph build, the per-row ``dict`` seed lookup, the
``np.unique`` halo census, a Python loop over the arcs for the
canonical predecessors and the per-call ``np.full``/``np.nonzero``
table of the ``adopt_lexmin`` reduction.  Inputs are tie-heavy on
purpose (weights in {1, 2, 3}, parallel edges, self-loops, isolated
vertices, forests): ties are where an array rewrite drifts from the
reference.  Where a kernel picks between a dense table and a sort by
input size, fixed cases pin each side, and each asserts the side it
takes.
"""

from __future__ import annotations

import heapq
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays import run_starts, sorted_unique
from repro.core.distance_graph import (
    HALO_MARK_RATIO,
    PAIR_TABLE_RATIO,
    build_distance_graph,
    local_min_edge_costs,
)
from repro.graph.connectivity import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.graph.weights import assign_uniform_weights
from repro.mst.prim import prim_mst
from repro.runtime.cost_model import MachineModel
from repro.runtime.partition import block_partition
from repro.shortest_paths.vectorized import adopt_lexmin, key_table
from repro.shortest_paths.voronoi import (
    INF,
    NO_VERTEX,
    canonicalize_predecessors,
    compute_voronoi_cells,
)
from tests.conftest import (
    component_seeds,
    hash_partition,
    multigraph_edges,
    packed_key_guard,
    tie_heavy_graph_and_seeds,
)

SRC = Path(__file__).resolve().parents[1] / "src"

ORACLE = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------- #
# references: the formulations the array kernels replaced
# --------------------------------------------------------------------- #
def heap_prim(n_vertices, src, dst, weight):
    """Binary-heap Prim over ``(w, v, u, e)`` entries."""
    adj = [[] for _ in range(n_vertices)]
    for e in range(len(src)):
        u, v = int(src[e]), int(dst[e])
        adj[u].append((v, e))
        adj[v].append((u, e))
    in_tree = np.zeros(n_vertices, dtype=bool)
    chosen = []
    for start in range(n_vertices):
        if in_tree[start]:
            continue
        in_tree[start] = True
        heap = [(int(weight[e]), v, start, e) for v, e in adj[start]]
        heapq.heapify(heap)
        while heap:
            _w, v, _u, e = heapq.heappop(heap)
            if in_tree[v]:
                continue
            in_tree[v] = True
            chosen.append(e)
            for nxt, e2 in adj[v]:
                if not in_tree[nxt]:
                    heapq.heappush(heap, (int(weight[e2]), nxt, v, e2))
    return np.asarray(sorted(chosen), dtype=np.int64)


def lexsort_distance_graph(graph, src, dist):
    """Four-key ``lexsort`` build: first row per cell pair of the
    ``(key, d', u, v)`` order."""
    eu, ev, ew = graph.edge_array()
    cross = (src[eu] != NO_VERTEX) & (src[ev] != NO_VERTEX) & (src[eu] != src[ev])
    eu, ev, ew = eu[cross], ev[cross], ew[cross]
    s_arr = np.minimum(src[eu], src[ev])
    t_arr = np.maximum(src[eu], src[ev])
    d_arr = dist[eu] + ew + dist[ev]
    swap = src[eu] != s_arr
    bu = np.where(swap, ev, eu)
    bv = np.where(swap, eu, ev)
    key = s_arr * np.int64(graph.n_vertices) + t_arr
    order = np.lexsort((bv, bu, d_arr, key))
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    pick = order[first]
    return s_arr[pick], t_arr[pick], bu[pick], bv[pick], d_arr[pick]


def per_call_adopt_lexmin(heads, nd, owner, dist, src):
    """``adopt_lexmin`` on a fresh n-entry table: ``np.full`` and
    ``np.nonzero`` over all ``n`` entries on every call, sorting past the
    packed-key guard.  Returns the winners and the path ``adopt_lexmin``
    takes on this input: ``"packed"`` through the table, ``"lexsort"``
    past the guard, or ``None`` when no candidate improves."""
    better = (nd < dist[heads]) | ((nd == dist[heads]) & (owner < src[heads]))
    heads, nd, owner = heads[better], nd[better], owner[better]
    if heads.size == 0:
        return heads, None
    n = dist.size
    if int(nd.max()) <= packed_key_guard(n):
        best = np.full(n, INF, dtype=np.int64)
        np.minimum.at(best, heads, nd * n + owner)
        winners = np.nonzero(best != INF)[0]
        dist[winners], src[winners] = np.divmod(best[winners], n)
        return winners, "packed"
    order = np.lexsort((owner, nd, heads))
    first = order[run_starts(heads[order])]
    dist[heads[first]], src[heads[first]] = nd[first], owner[first]
    return heads[first], "lexsort"


def cross_edge_count(graph, src):
    """Edges whose endpoints lie in two different cells."""
    eu, ev, _ = graph.edge_array()
    su, sv = src[eu], src[ev]
    return int(((su != sv) & (su != NO_VERTEX) & (sv != NO_VERTEX)).sum())


def halo_record_count(partition):
    """Halo records before deduplication: one per arc endpoint whose
    state lives off the arc's holding rank."""
    u, v, _, arc_rank = partition.arc_arrays()
    owner = partition.owner
    return int((arc_rank != owner[v]).sum() + (arc_rank != owner[u]).sum())


def tight_arc_loop_pred(graph, src, dist):
    """Per vertex, the smallest tail of a tight same-cell in-arc, by a
    Python loop over every arc ``u -> v``."""
    n = graph.n_vertices
    pred = [int(NO_VERTEX)] * n
    for u in range(n):
        for i in range(int(graph.indptr[u]), int(graph.indptr[u + 1])):
            v, w = int(graph.indices[i]), int(graph.weights[i])
            if dist[v] == INF or dist[v] == 0:  # unreached head, or a seed
                continue
            if src[u] == src[v] and int(dist[u]) + w == int(dist[v]):
                if pred[v] == NO_VERTEX or u < pred[v]:
                    pred[v] = u
    return np.asarray(pred, dtype=np.int64)


def unique_halo_census(partition, machine):
    """The ``np.unique`` cost model."""
    u, v, _, arc_rank = partition.arc_arrays()
    owner = partition.owner
    remote_v = arc_rank != owner[v]
    remote_u = arc_rank != owner[u]
    halo_keys = np.concatenate(
        [
            v[remote_v] * np.int64(partition.n_ranks) + arc_rank[remote_v],
            u[remote_u] * np.int64(partition.n_ranks) + arc_rank[remote_u],
        ]
    )
    n_halo = int(np.unique(halo_keys).size) if halo_keys.size else 0
    recv = np.zeros(partition.n_ranks, dtype=np.int64)
    if halo_keys.size:
        recv = np.bincount(
            np.unique(halo_keys) % partition.n_ranks, minlength=partition.n_ranks
        )
    per_rank = partition.local_arc_count() * machine.t_edge_scan + recv * machine.t_visit
    sim_time = float(per_rank.max()) if per_rank.size else 0.0
    if partition.n_ranks > 1 and n_halo:
        sim_time += machine.t_remote_latency
    return sim_time, n_halo, n_halo * 24


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
@st.composite
def lexmin_call_sequences(draw):
    """``(dist, src, calls)``: a state on ``n <= 24`` vertices, some
    unreached, and up to six candidate batches ``(heads, nd, owner)``
    with tie-heavy small distances.  A batch drawn near the packed-key
    guard mostly passes it, so its call takes the ``lexsort`` path and
    must leave the table untouched."""
    n = draw(st.integers(1, 24))
    reached = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    dist = np.asarray([draw(st.integers(0, 12)) if r else INF for r in reached])
    src = np.asarray(
        [draw(st.integers(0, n - 1)) if r else NO_VERTEX for r in reached]
    )

    def ints(m, hi):
        values = draw(st.lists(st.integers(0, hi), min_size=m, max_size=m))
        return np.asarray(values, dtype=np.int64)

    calls = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(0, 3 * n))
        base = packed_key_guard(n) - 2 if draw(st.booleans()) else 0
        calls.append((ints(m, n - 1), base + ints(m, 12), ints(m, n - 1)))
    return dist.astype(np.int64), src.astype(np.int64), calls


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #
class TestSortedUnique:
    @ORACLE
    @given(st.lists(st.integers(-5, 5), max_size=40))
    def test_equals_np_unique(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(sorted_unique(arr), np.unique(arr))


class TestAdoptLexminOracle:
    @staticmethod
    def adopt_like_per_call(heads, nd, owner, dist, src, best, ref_dist, ref_src):
        """One call on the shared table, checked against the per-call
        oracle; returns the path it took."""
        want, path = per_call_adopt_lexmin(heads, nd, owner, ref_dist, ref_src)
        # the lexsort path must not touch the table: a write would raise
        best.flags.writeable = path != "lexsort"
        got = adopt_lexmin(heads, nd, owner, dist, src, best)
        best.flags.writeable = True
        assert np.array_equal(got, want)
        assert np.array_equal(got, np.unique(got))
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(src, ref_src)
        assert (best == INF).all()
        return path

    @ORACLE
    @given(lexmin_call_sequences())
    def test_one_table_through_a_call_sequence(self, case):
        dist, src, calls = case
        ref_dist, ref_src = dist.copy(), src.copy()
        best = key_table(dist.size)
        for heads, nd, owner in calls:
            self.adopt_like_per_call(
                heads, nd, owner, dist, src, best, ref_dist, ref_src
            )

    def test_sequence_takes_every_path(self):
        n = 17
        guard = packed_key_guard(n)
        dist = np.full(n, INF, dtype=np.int64)
        src = np.full(n, NO_VERTEX, dtype=np.int64)
        dist[[0, 16]], src[[0, 16]] = [0, 7], [0, 16]
        best = key_table(n)
        calls = [
            ([1, 2, 1], [guard + 1, guard + 1, guard + 1], [3, 0, 0]),
            ([1, 2, 2], [5, guard, guard], [0, 3, 0]),  # packs at the guard
            ([16, 16], [7, 6], [0, 3]),
        ]
        ref_dist, ref_src = dist.copy(), src.copy()
        paths = [
            self.adopt_like_per_call(
                *(np.asarray(a, np.int64) for a in call),
                dist, src, best, ref_dist, ref_src,
            )
            for call in calls
        ]
        assert paths == ["lexsort", "packed", "packed"]
        assert dist[[1, 2, 16]].tolist() == [5, guard, 6]
        assert src[[1, 2, 16]].tolist() == [0, 0, 3]


class TestPrimOracle:
    @ORACLE
    @given(multigraph_edges())
    def test_equals_heap_prim(self, case):
        n, src, dst, w = case
        assert np.array_equal(prim_mst(n, src, dst, w), heap_prim(n, src, dst, w))

    @pytest.mark.parametrize("k", [30, 300])
    def test_equals_heap_prim_on_distance_graphs(self, k):
        g = assign_uniform_weights(rmat_graph(11, 6, seed=3), (1, 100), seed=4)
        seeds = component_seeds(g, k, seed=k)
        vd = compute_voronoi_cells(g, seeds)
        dg = build_distance_graph(g, seeds, vd.src, vd.dist)
        si, ti = dg.seed_indices()
        assert np.array_equal(
            prim_mst(k, si, ti, dg.dprime), heap_prim(k, si, ti, dg.dprime)
        )


class TestDistanceGraphOracle:
    @ORACLE
    @given(tie_heavy_graph_and_seeds())
    def test_equals_lexsort_build(self, case):
        g, seeds = case
        vd = compute_voronoi_cells(g, seeds)
        seeds_arr = np.asarray(seeds, dtype=np.int64)
        dg = build_distance_graph(g, seeds_arr, vd.src, vd.dist)
        ref = lexsort_distance_graph(g, vd.src, vd.dist)
        got = (dg.cell_s, dg.cell_t, dg.u, dg.v, dg.dprime)
        for a, b in zip(got, ref):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    # k = 30 has 6,453 cross edges (k**2 = 900) and reduces on the pair
    # table; k = 300 has 8,521 (k**2 = 90,000) and sorts
    @pytest.mark.parametrize("k, pair_table", [(30, True), (300, False)])
    def test_equals_lexsort_build_on_each_side_of_the_size_rule(self, k, pair_table):
        g = assign_uniform_weights(rmat_graph(11, 6, seed=3), (1, 100), seed=4)
        seeds = component_seeds(g, k, seed=k)
        vd = compute_voronoi_cells(g, seeds)
        assert (k * k <= PAIR_TABLE_RATIO * cross_edge_count(g, vd.src)) == pair_table
        ref = lexsort_distance_graph(g, vd.src, vd.dist)
        # a caller's seed order moves the indices, never the rows
        shuffled = np.random.default_rng(k).permutation(seeds)
        for order in (seeds, shuffled):
            dg = build_distance_graph(g, order, vd.src, vd.dist)
            for a, b in zip((dg.cell_s, dg.cell_t, dg.u, dg.v, dg.dprime), ref):
                assert np.array_equal(a, b)
            si, ti = dg.seed_indices()
            assert np.array_equal(order[si], dg.cell_s)
            assert np.array_equal(order[ti], dg.cell_t)


class TestSeedIndices:
    """The build's seed indices, on hand-made ``src`` arrays over a
    cycle with chords: positions in the caller's seed order."""

    @staticmethod
    def _build(seeds, src):
        n = len(src)
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 5) % n) for i in range(n)]
        g = CSRGraph.from_edges(n, edges, [1, 2] * n)
        src = np.asarray(src, dtype=np.int64)
        return build_distance_graph(
            g, np.asarray(seeds, dtype=np.int64), src, np.zeros(n, dtype=np.int64)
        )

    @ORACLE
    @given(st.data())
    def test_equals_dict_lookup(self, data):
        seeds = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=8))
        src = data.draw(st.lists(st.sampled_from([*seeds, -1]), min_size=31, max_size=31))
        lookup = {s: i for i, s in enumerate(seeds)}
        dg = self._build(seeds, src)
        si, ti = dg.seed_indices()
        assert si.tolist() == [lookup[s] for s in dg.cell_s.tolist()]
        assert ti.tolist() == [lookup[t] for t in dg.cell_t.tolist()]

    @pytest.mark.parametrize("seeds", [[2, 5, 9], [9, 2, 5]])
    @pytest.mark.parametrize("bad", [0, 4, 10])
    def test_raises_on_a_cell_that_is_not_a_seed(self, seeds, bad):
        src = [2, 2, 5, 5, -1, 9, bad, 9, 5, 2, 9, 5]
        with pytest.raises(KeyError) as err:
            self._build(seeds, src)
        assert err.value.args == (bad,)

    def test_raises_without_seeds(self):
        with pytest.raises(KeyError) as err:
            self._build([], [-1, 1, 2, 1])
        assert err.value.args == (1,)


class TestHaloCensusOracle:
    GRAPHS = {
        "rmat": lambda: assign_uniform_weights(rmat_graph(9, 6, seed=1), (1, 9), seed=2),
        "forest": lambda: CSRGraph.from_edges(
            12, np.asarray([(0, 1), (1, 2), (5, 6), (9, 10)]), [1, 2, 3, 1]
        ),
    }
    PARTITIONS = [block_partition, hash_partition]
    RANKS = [1, 4, 16, 64]
    DELEGATES = [None, 3]

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("n_ranks", RANKS)
    @pytest.mark.parametrize("delegates", DELEGATES)
    def test_equals_np_unique_census(self, graph, partition, n_ranks, delegates):
        part = partition(self.GRAPHS[graph](), n_ranks, delegate_threshold=delegates)
        machine = MachineModel()
        assert local_min_edge_costs(part, machine) == unique_halo_census(part, machine)

    def test_cases_cover_both_sides_of_the_size_rule(self):
        # rmat at P >= 4 takes the dense mark; P = 1 and most forest
        # cases sort
        sides = set()
        for graph, partition, n_ranks, delegates in itertools.product(
            self.GRAPHS, self.PARTITIONS, self.RANKS, self.DELEGATES
        ):
            part = partition(self.GRAPHS[graph](), n_ranks, delegate_threshold=delegates)
            n_keys = part.graph.n_vertices * n_ranks
            sides.add(n_keys <= HALO_MARK_RATIO * halo_record_count(part))
        assert sides == {True, False}


class TestCanonicalPredecessorOracle:
    @ORACLE
    @given(tie_heavy_graph_and_seeds())
    def test_equals_tight_arc_loop(self, case):
        g, seeds = case
        vd = compute_voronoi_cells(g, seeds)
        pred = canonicalize_predecessors(g, vd.src, vd.dist)
        assert pred.dtype == np.int64
        assert np.array_equal(pred, tight_arc_loop_pred(g, vd.src, vd.dist))


class TestEdgeArrayMemo:
    def test_second_call_returns_the_same_read_only_arrays(self):
        g = assign_uniform_weights(rmat_graph(7, 4, seed=1), (1, 9), seed=2)
        first = g.edge_array()
        second = g.edge_array()
        assert all(a is b for a, b in zip(first, second))
        for arr in first:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_a_new_graph_object_recomputes(self):
        g = assign_uniform_weights(rmat_graph(7, 4, seed=1), (1, 9), seed=2)
        src, dst, w = g.edge_array()
        h = g.reweighted(g.weights * 2)
        src2, dst2, w2 = h.edge_array()
        assert src2 is not src
        assert np.array_equal(src2, src) and np.array_equal(w2, 2 * w)


class TestArcTails:
    """The arc tails are built once per graph, and the passes that read
    them keep their outputs: the census counts and canonical
    predecessors pinned below are the values of the per-call builds."""

    GRAPH = staticmethod(
        lambda: assign_uniform_weights(rmat_graph(9, 6, seed=1), (1, 9), seed=2)
    )

    def test_memoised_read_only_and_shared(self):
        g = self.GRAPH()
        tails = g.arc_tails()
        assert tails is g.arc_tails()
        assert np.array_equal(
            tails, np.repeat(np.arange(g.n_vertices), np.diff(g.indptr))
        )
        with pytest.raises(ValueError):
            tails[0] = 0
        assert block_partition(g, 4).arc_arrays()[0] is tails

    @pytest.mark.parametrize(
        ("partition", "n_ranks", "delegates", "census"),
        [
            (block_partition, 4, None, (0.00012416, 818, 19632)),
            (block_partition, 4, 3, (0.00011862, 884, 21216)),
            (block_partition, 16, None, (7.394e-05, 2128, 51072)),
            (block_partition, 16, 3, (7.412e-05, 2930, 70320)),
            (hash_partition, 4, None, (0.00012085999999999999, 821, 19704)),
            (hash_partition, 4, 3, (0.00011729999999999999, 874, 20976)),
            (hash_partition, 16, None, (7.311999999999999e-05, 2059, 49416)),
            (hash_partition, 16, 3, (7.446e-05, 2935, 70440)),
        ],
    )
    def test_census_counts_pinned(self, partition, n_ranks, delegates, census):
        part = partition(self.GRAPH(), n_ranks, delegate_threshold=delegates)
        assert local_min_edge_costs(part, MachineModel()) == census

    def test_off_owner_arcs_are_striped_delegate_arcs(self):
        g = self.GRAPH()
        assert block_partition(g, 4).off_owner_arcs().size == 0
        part = block_partition(g, 4, delegate_threshold=3)
        off = part.off_owner_arcs()
        tails = g.arc_tails()
        assert np.array_equal(off, np.flatnonzero(part.arc_rank != part.owner[tails]))
        assert off.size and part.delegate_mask(tails[off]).all()

    @pytest.mark.parametrize(
        ("graph", "k", "digest", "pred_sum", "n_with_pred"),
        [
            ("rmat", 3, "3b60edd6ceb84302", 86744, 389),
            ("rmat", 20, "1d34e56a5afa7730", 87599, 372),
            ("grid", 3, "f72f66e51cb8eae1", 9852, 141),
            ("grid", 20, "2cbb36ab2a3b27c1", 8684, 124),
        ],
    )
    def test_canonical_pred_pinned(self, graph, k, digest, pred_sum, n_with_pred):
        import hashlib

        from repro.graph.generators import grid_graph

        g = self.GRAPH() if graph == "rmat" else assign_uniform_weights(
            grid_graph(12, 12), (1, 3), seed=4
        )
        vd = compute_voronoi_cells(g, component_seeds(g, k, seed=5))
        pred = canonicalize_predecessors(g, vd.src, vd.dist)
        assert hashlib.sha256(pred.tobytes()).hexdigest()[:16] == digest
        assert int(pred.sum()) == pred_sum
        assert int((pred >= 0).sum()) == n_with_pred


class TestConnectedComponents:
    @ORACLE
    @given(multigraph_edges(max_vertices=30, max_edges=40))
    def test_labels_equal_scipy(self, case):
        sp = pytest.importorskip("scipy.sparse")
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        n, src, dst, w = case
        n = max(n, 1)
        edges = np.stack([src, dst], axis=1) if src.size else np.zeros((0, 2), np.int64)
        g = CSRGraph.from_edges(n, edges, w)
        mat = sp.csr_matrix(
            (np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n)
        )
        _, ref = csgraph.connected_components(mat, directed=False)
        labels = connected_components(g)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, ref)


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


class TestScipyIsOptional:
    def test_library_works_without_scipy(self):
        proc = _run_python(
            """
import sys
sys.modules["scipy"] = None  # any scipy import now fails
import numpy as np
import repro
from repro.api import Session
from repro.graph.connectivity import largest_component_vertices
from repro.graph.generators import rmat_graph
from repro.graph.weights import assign_uniform_weights

g = assign_uniform_weights(rmat_graph(8, 4, seed=1), (1, 20), seed=2)
comp = largest_component_vertices(g)
with Session(g, engine="bsp-batched", voronoi_backend="delta-numpy") as s:
    result = s.solve(comp[:5])
assert result.n_edges >= 4
print("ok")
"""
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "ok"

    def test_fast_path_solve_does_not_import_scipy(self):
        proc = _run_python(
            """
import sys
import repro.api
from repro.api import Session
from repro.graph.connectivity import largest_component_vertices
from repro.graph.generators import rmat_graph
from repro.graph.weights import assign_uniform_weights

g = assign_uniform_weights(rmat_graph(8, 4, seed=1), (1, 20), seed=2)
with Session(g, engine="bsp-batched", voronoi_backend="delta-numpy") as s:
    s.solve(largest_component_vertices(g)[:5])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"


class TestImportHasNoSideEffects:
    def test_import_leaves_environment_unchanged(self):
        # start from an empty environment, so a default the library
        # writes only when a variable is unset cannot hide behind a
        # value this test process inherited
        proc = _run_python(
            """
import os
os.environ.clear()
before = dict(os.environ)
import repro.api
import repro.serve
import repro.harness.cli
changed = set(before.items()) ^ set(os.environ.items())
assert not changed, sorted(changed)
print("ok")
"""
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "ok"
