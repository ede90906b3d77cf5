"""Cross-engine conformance harness: one matrix pins every engine.

This module is the single place the registry-wide parity contract is
spelled out and exercised.  The helpers here (``solve_with``,
``assert_counts_identical``, ``assert_conformance``) are the canonical
implementations — ``tests/test_engines.py`` imports them for its
engine-specific suites, so there is exactly one definition of "engines
agree" in the tree.

What the matrix pins, for **every registered engine** (discovered via
``available_engines()``, so a newly registered engine joins the matrix
automatically and cannot ship unpinned):

* identical Steiner tree — same edge triples, same total weight — on
  every topology × weight-regime × rank-count cell;
* bit-identical BSP counters (``n_visits``, ``n_messages_local``,
  ``n_messages_remote``, ``bytes_sent``, ``peak_queue_total``) and
  superstep counts across the whole BSP family (``bsp``,
  ``bsp-batched``), with ``sim_time`` equal to float round-off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.solver import DistributedSteinerSolver
from repro.graph.generators import grid_graph
from repro.graph.weights import assign_uniform_weights
from repro.runtime.engines import available_engines
from repro.shortest_paths.voronoi import compute_voronoi_cells
from tests.conftest import (
    astronomical_chain,
    component_seeds,
    make_connected_graph,
    packed_key_guard,
)

#: the engine counters that must match bit-for-bit across the BSP family
COUNTERS = (
    "n_visits",
    "n_messages_local",
    "n_messages_remote",
    "bytes_sent",
    "peak_queue_total",
)

#: engines that share the bulk-synchronous superstep semantics: their
#: counters are bit-identical, not merely their converged state
BSP_FAMILY = ("bsp", "bsp-batched")


def solve_with(graph, seeds, engine, n_ranks=6, **cfg):
    """One full solve under the named engine (shared helper)."""
    return DistributedSteinerSolver(
        graph, SolverConfig(n_ranks=n_ranks, engine=engine, **cfg)
    ).solve(seeds)


def assert_counts_identical(ref_stats, stats, ref_engine, engine):
    """The bit-identical-counters contract for one phase run directly on
    two engine instances (superstep counts included)."""
    for attr in COUNTERS:
        assert getattr(ref_stats, attr) == getattr(stats, attr), attr
    assert ref_engine.n_supersteps == engine.n_supersteps
    assert stats.sim_time == pytest.approx(ref_stats.sim_time, rel=1e-9)


def assert_conformance(graph, seeds, n_ranks=6, engines=None, **cfg):
    """The full cross-engine contract on one solver instance.

    Solves with every engine in ``engines`` (default: every registered
    engine) and asserts: identical tree everywhere; bit-identical phase
    counters within the BSP family (``sim_time`` to round-off); and
    identical walk-phase message counts across *all* engines (the
    tree-edge walk is order-independent — the Voronoi phase's counts
    are legitimately schedule-dependent, the paper's own Fig. 5/6
    effect).  Returns the per-engine results for extra assertions.
    """
    names = list(engines) if engines is not None else available_engines()
    results = {
        engine: solve_with(graph, seeds, engine, n_ranks=n_ranks, **cfg)
        for engine in names
    }
    ref = next(iter(results.values()))
    for engine, res in results.items():
        assert np.array_equal(ref.edges, res.edges), engine
        assert ref.total_distance == res.total_distance, engine
    family = [n for n in names if n in BSP_FAMILY]
    if len(family) > 1:
        bsp_ref = results[family[0]]
        for other in family[1:]:
            for p_ref, p_other in zip(
                bsp_ref.phases, results[other].phases
            ):
                for attr in COUNTERS:
                    assert getattr(p_ref, attr) == getattr(p_other, attr), (
                        other,
                        p_ref.name,
                        attr,
                    )
                assert p_other.sim_time == pytest.approx(
                    p_ref.sim_time, rel=1e-9
                ), (other, p_ref.name)
    walk = [res.phases[5] for res in results.values()]
    assert len({(p.n_messages_local, p.n_messages_remote) for p in walk}) == 1
    return results


# --------------------------------------------------------------------- #
# the matrix axes
# --------------------------------------------------------------------- #
def _grid(weight_regime):
    g = grid_graph(6, 6)
    return g if weight_regime == "unit" else assign_uniform_weights(
        g, (1, 20), seed=51
    )


def _er(weight_regime):
    g = make_connected_graph(40, 110, seed=52)
    return (
        assign_uniform_weights(g, (1, 1), seed=53)
        if weight_regime == "unit"
        else g
    )


def _chain(weight_regime):
    # a long path: maximally deep supersteps with tiny inboxes
    g = grid_graph(1, 48)
    return g if weight_regime == "unit" else assign_uniform_weights(
        g, (1, 9), seed=54
    )


TOPOLOGIES = {"grid": _grid, "er-random": _er, "chain": _chain}
WEIGHT_REGIMES = ("unit", "uniform")
RANK_COUNTS = (1, 6)

MATRIX = [
    pytest.param(topo, regime, n_ranks, id=f"{topo}-{regime}-r{n_ranks}")
    for topo in TOPOLOGIES
    for regime in WEIGHT_REGIMES
    for n_ranks in RANK_COUNTS
]


class TestConformanceMatrix:
    """Every registered engine, across topology × weights × ranks."""

    @pytest.mark.parametrize("topo,regime,n_ranks", MATRIX)
    def test_cell(self, topo, regime, n_ranks):
        graph = TOPOLOGIES[topo](regime)
        seeds = component_seeds(graph, 4, seed=55)
        assert_conformance(graph, seeds, n_ranks=n_ranks)

    def test_matrix_covers_every_registered_engine(self):
        """The engine axis is *discovered*, never hand-listed: a new
        registry entry joins the matrix or this test names it."""
        names = available_engines()
        assert set(names) >= {"async-heap", "bsp", "bsp-batched"}
        # and the family split is total over the discovered axis
        assert all(n in BSP_FAMILY or n == "async-heap" for n in names)


class TestPackedKeyFallback:
    """Distances past the packed-key guard: ``bsp-batched`` reduces each
    superstep's candidates by sorting and must still match ``bsp`` and
    the Dijkstra reference."""

    def test_chain_past_the_guard(self):
        graph = astronomical_chain()
        n = graph.n_vertices
        seeds = [0, n - 1]
        ref = compute_voronoi_cells(graph, seeds)
        assert ref.dist.max() > packed_key_guard(n)
        results = assert_conformance(
            graph, seeds, engines=BSP_FAMILY, collect_diagram=True
        )
        for engine, res in results.items():
            assert np.array_equal(res.diagram.dist, ref.dist), engine
            assert np.array_equal(res.diagram.src, ref.src), engine
