"""Unit tests for core-algorithm components: the distributed Voronoi
program, the distance graph, and tree-edge identification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance_graph import build_distance_graph, local_min_edge_costs
from repro.core.tree_edge import TreeEdgeProgram, walk_tree_edges
from repro.core.voronoi_visitor import VoronoiProgram
from repro.runtime.cost_model import MachineModel
from repro.runtime.engine import AsyncEngine
from repro.runtime.partition import block_partition
from repro.shortest_paths.voronoi import (
    NO_VERTEX,
    canonicalize_predecessors,
    compute_voronoi_cells,
)
from tests.conftest import component_seeds, hash_partition, make_connected_graph


def run_voronoi_program(graph, seeds, *, ranks=4, discipline="priority",
                        delegate_threshold=None, partition_fn=block_partition):
    part = partition_fn(graph, ranks, delegate_threshold=delegate_threshold)
    engine = AsyncEngine(part, MachineModel(), discipline)
    prog = VoronoiProgram(part)
    engine.run_phase("vc", prog, list(prog.initial_messages(np.asarray(seeds))))
    return prog


class TestVoronoiProgram:
    @pytest.mark.parametrize("discipline", ["fifo", "priority"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sequential_fixpoint(self, seed, discipline):
        g = make_connected_graph(35, 90, seed=seed + 60)
        seeds = component_seeds(g, 4, seed=seed)
        prog = run_voronoi_program(g, seeds, discipline=discipline)
        vd = compute_voronoi_cells(g, seeds)
        assert np.array_equal(prog.dist, vd.dist)
        assert np.array_equal(prog.src, vd.src)

    def test_delegates_do_not_change_fixpoint(self, skewed_graph):
        seeds = component_seeds(skewed_graph, 5, seed=1)
        plain = run_voronoi_program(skewed_graph, seeds)
        deleg = run_voronoi_program(
            skewed_graph, seeds, delegate_threshold=int(skewed_graph.avg_degree * 3)
        )
        assert np.array_equal(plain.dist, deleg.dist)
        assert np.array_equal(plain.src, deleg.src)

    def test_hash_partition_same_fixpoint(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=2)
        a = run_voronoi_program(random_graph, seeds)
        b = run_voronoi_program(random_graph, seeds, partition_fn=hash_partition)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.src, b.src)

    def test_fifo_generates_more_messages(self):
        g = make_connected_graph(60, 180, weight_high=100, seed=5)
        seeds = component_seeds(g, 4, seed=5)
        part = block_partition(g, 4)
        machine = MachineModel()
        counts = {}
        for disc in ("fifo", "priority"):
            engine = AsyncEngine(part, machine, disc)
            prog = VoronoiProgram(part)
            stats = engine.run_phase("vc", prog, list(prog.initial_messages(seeds)))
            counts[disc] = stats.n_messages
        assert counts["fifo"] >= counts["priority"]


class TestDistanceGraph:
    def test_matches_bruteforce(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=3)
        vd = compute_voronoi_cells(random_graph, seeds)
        dg = build_distance_graph(random_graph, seeds, vd.src, vd.dist)

        # brute force: min over all cross edges per cell pair
        expected: dict[tuple[int, int], int] = {}
        for u, v, w in random_graph.iter_edges():
            su, sv = int(vd.src[u]), int(vd.src[v])
            if su == NO_VERTEX or sv == NO_VERTEX or su == sv:
                continue
            key = (min(su, sv), max(su, sv))
            d = int(vd.dist[u] + w + vd.dist[v])
            expected[key] = min(expected.get(key, 1 << 60), d)

        got = {
            (int(s), int(t)): int(d)
            for s, t, d in zip(dg.cell_s, dg.cell_t, dg.dprime)
        }
        assert got == expected

    def test_bridge_endpoints_in_right_cells(self, random_graph):
        seeds = component_seeds(random_graph, 5, seed=4)
        vd = compute_voronoi_cells(random_graph, seeds)
        dg = build_distance_graph(random_graph, seeds, vd.src, vd.dist)
        for i in range(dg.n_edges):
            assert vd.src[dg.u[i]] == dg.cell_s[i]
            assert vd.src[dg.v[i]] == dg.cell_t[i]
            assert random_graph.has_edge(int(dg.u[i]), int(dg.v[i]))

    def test_single_cell_empty(self, random_graph):
        vd = compute_voronoi_cells(random_graph, [0])
        dg = build_distance_graph(random_graph, np.asarray([0]), vd.src, vd.dist)
        assert dg.n_edges == 0
        si, ti = dg.seed_indices()
        assert si.size == 0 and ti.size == 0

    def test_seed_indices(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=6)
        vd = compute_voronoi_cells(random_graph, seeds)
        dg = build_distance_graph(random_graph, seeds, vd.src, vd.dist)
        si, ti = dg.seed_indices()
        assert np.array_equal(seeds[si], dg.cell_s)
        assert np.array_equal(seeds[ti], dg.cell_t)

    def test_local_min_edge_costs(self, random_graph):
        machine = MachineModel()
        single = local_min_edge_costs(block_partition(random_graph, 1), machine)
        multi = local_min_edge_costs(block_partition(random_graph, 4), machine)
        assert single[1] == 0  # no halo messages on one rank
        assert multi[1] > 0
        assert multi[2] == multi[1] * 24  # bytes per halo record


class TestTreeEdges:
    def test_walk_equals_program(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=7)
        vd = compute_voronoi_cells(random_graph, seeds)
        pred = canonicalize_predecessors(random_graph, vd.src, vd.dist)
        dg = build_distance_graph(random_graph, seeds, vd.src, vd.dist)
        endpoints = np.concatenate([dg.u, dg.v])

        seq_edges = set(walk_tree_edges(vd.src, pred, vd.dist, endpoints))

        part = block_partition(random_graph, 4)
        prog = TreeEdgeProgram(part, vd.src, pred, vd.dist)
        engine = AsyncEngine(part, MachineModel(), "priority")
        engine.run_phase("te", prog, list(prog.initial_messages(endpoints)))
        lo, hi, w = prog.edge_arrays()
        assert set(zip(lo.tolist(), hi.tolist(), w.tolist())) == seq_edges

    def test_walk_weights_are_true_edge_weights(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=8)
        vd = compute_voronoi_cells(random_graph, seeds)
        pred = canonicalize_predecessors(random_graph, vd.src, vd.dist)
        dg = build_distance_graph(random_graph, seeds, vd.src, vd.dist)
        endpoints = np.concatenate([dg.u, dg.v])
        for u, v, w in walk_tree_edges(vd.src, pred, vd.dist, endpoints):
            assert random_graph.edge_weight(u, v) == w

    def test_seed_endpoint_contributes_nothing(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=9)
        vd = compute_voronoi_cells(random_graph, seeds)
        pred = canonicalize_predecessors(random_graph, vd.src, vd.dist)
        edges = walk_tree_edges(vd.src, pred, vd.dist, np.asarray([seeds[0]]))
        assert edges == []
