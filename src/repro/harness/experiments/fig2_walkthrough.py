"""Fig. 2 — stage-by-stage walkthrough of the algorithm.

The paper's Fig. 2 illustrates the five artefacts the algorithm builds:
(a) Voronoi cells with cross-cell edges, (b) the distance graph ``G'1``,
(c) its MST ``G'2``, (d) post-MST edge pruning, (e) the final Steiner
tree.  This experiment materialises each artefact on a small instance
and prints it — the textual counterpart of the figure, and a worked
example for library users.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance_graph import build_distance_graph
from repro.core.tree_edge import walk_tree_edges
from repro.graph.generators import grid_graph
from repro.graph.weights import assign_uniform_weights
from repro.harness.experiments._shared import ExperimentReport
from repro.harness.reporting import render_table
from repro.mst.prim import prim_mst
from repro.seeds.selection import select_seeds
from repro.shortest_paths.voronoi import (
    canonicalize_predecessors,
    compute_voronoi_cells,
)

EXP_ID = "fig2"
TITLE = "Stage-by-stage walkthrough (Voronoi cells -> G'1 -> MST -> pruning -> tree)"


def run(quick: bool = False) -> ExperimentReport:
    """Run this experiment; ``quick=True`` shrinks the sweep for
    test-suite use (see the module docstring for the paper claim
    being reproduced)."""
    graph = assign_uniform_weights(grid_graph(6, 6), (1, 9), seed=3)
    seeds = select_seeds(graph, 4, "uniform-random", seed=5)
    report = ExperimentReport(EXP_ID, TITLE)

    # (a) Voronoi cells
    vd = compute_voronoi_cells(graph, seeds)
    vd.pred = canonicalize_predecessors(graph, vd.src, vd.dist)
    sizes = vd.cell_sizes()
    report.tables.append(
        render_table(
            ["seed s", "|N(s)|", "max dist in cell"],
            [
                [s, sizes[int(s)], int(vd.dist[vd.src == s].max())]
                for s in seeds
            ],
            title="(a) Voronoi cells",
        )
    )

    # (b) distance graph G'1
    dg = build_distance_graph(graph, seeds, vd.src, vd.dist)
    report.tables.append(
        render_table(
            ["cell pair (s,t)", "bridge edge (u,v)", "d'1(s,t)"],
            [
                [f"({s},{t})", f"({u},{v})", d]
                for s, t, u, v, d in zip(
                    dg.cell_s, dg.cell_t, dg.u, dg.v, dg.dprime
                )
            ],
            title="(b) distance graph G'1",
        )
    )

    # (c) MST G'2
    si, ti = dg.seed_indices()
    mst_idx = prim_mst(len(seeds), si, ti, dg.dprime)
    report.tables.append(
        render_table(
            ["MST edge (s,t)", "d'1"],
            [
                [f"({dg.cell_s[e]},{dg.cell_t[e]})", int(dg.dprime[e])]
                for e in mst_idx
            ],
            title="(c) MST G'2 of G'1",
        )
    )

    # (d) pruning
    active = np.zeros(dg.n_edges, dtype=bool)
    active[mst_idx] = True
    n_deleted = int((~active).sum())

    # (e) final tree
    endpoints = np.concatenate([dg.u[active], dg.v[active]])
    path_edges = walk_tree_edges(vd.src, vd.pred, vd.dist, endpoints)
    cross_w = dg.dprime[active] - vd.dist[dg.u[active]] - vd.dist[dg.v[active]]
    rows = [
        [f"({u},{v})", int(w), "cross-cell"]
        for u, v, w in zip(dg.u[active], dg.v[active], cross_w)
    ] + [[f"({u},{v})", w, "pred walk"] for u, v, w in sorted(path_edges)]
    total = sum(r[1] for r in rows)
    report.tables.append(
        render_table(
            ["tree edge", "weight", "origin"],
            rows,
            title=f"(d)+(e) pruned {n_deleted} cross edges; final tree, D(GS)={total}",
        )
    )
    report.notes.append(
        "artefacts correspond one-to-one with the paper's Fig. 2 panels"
    )
    report.data = {
        "cell_sizes": {int(s): sizes[int(s)] for s in seeds},
        "n_distance_edges": dg.n_edges,
        "n_mst_edges": int(mst_idx.size),
        "n_pruned": n_deleted,
        "total_distance": total,
    }
    return report
