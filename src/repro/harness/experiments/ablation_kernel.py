"""Ablation — multi-source distance kernel choice (§III's discussion).

The paper picks Bellman–Ford over Δ-stepping for the distributed
Voronoi kernel: Δ-stepping (as used by Ceccarello et al. for
multi-source sweeps) is work-efficient but bucket-synchronous, which
"does not naturally extend to distributed memory".  Sequentially all
the kernels are legal — this ablation times them on the same
instances and verifies they reach the identical fixpoint, quantifying
the work-efficiency trade the paper accepted for asynchrony.
"""

from __future__ import annotations

import time

import numpy as np

from repro.harness.datasets import SEED_COUNTS, load_dataset
from repro.harness.experiments._shared import ExperimentReport
from repro.harness.reporting import fmt_time, render_table
from repro.seeds.selection import select_seeds
from repro.shortest_paths.multisource import (
    compute_voronoi_cells_delta_stepping,
    compute_voronoi_cells_spfa,
)
from repro.shortest_paths.vectorized import compute_voronoi_cells_delta_numpy
from repro.shortest_paths.voronoi import compute_voronoi_cells

EXP_ID = "ablation-kernel"
TITLE = "Multi-source kernel: Dijkstra-order vs SPFA vs Delta-stepping"

_KERNELS = [
    ("Dijkstra-order (reference)", compute_voronoi_cells),
    ("SPFA / Bellman-Ford (paper's distributed basis)", compute_voronoi_cells_spfa),
    ("Delta-stepping (Ceccarello-style)", compute_voronoi_cells_delta_stepping),
    ("Delta-stepping (vectorised NumPy)", compute_voronoi_cells_delta_numpy),
]


def run(quick: bool = False) -> ExperimentReport:
    """Run this experiment; ``quick=True`` shrinks the sweep for
    test-suite use (see the module docstring for the paper claim
    being reproduced)."""
    datasets = ["LVJ"] if quick else ["LVJ", "PTN", "UKW"]
    k = SEED_COUNTS[100]
    report = ExperimentReport(EXP_ID, TITLE)
    raw: dict[str, dict[str, float]] = {}

    headers = ["dataset"] + [name.split(" (")[0] for name, _ in _KERNELS]
    rows = []
    for ds in datasets:
        graph = load_dataset(ds)
        seeds = select_seeds(graph, k, "bfs-level", seed=1)
        times: dict[str, float] = {}
        results = []
        for name, kernel in _KERNELS:
            t0 = time.perf_counter()
            vd = kernel(graph, seeds)
            times[name] = time.perf_counter() - t0
            results.append(vd)
        # all kernels must agree on the fixpoint
        for other in results[1:]:
            if not (
                np.array_equal(results[0].src, other.src)
                and np.array_equal(results[0].dist, other.dist)
            ):
                raise AssertionError(f"kernel fixpoints disagree on {ds}")
        rows.append([ds] + [fmt_time(times[name]) for name, _ in _KERNELS])
        raw[ds] = {name: t for name, t in times.items()}
    report.tables.append(render_table(headers, rows, title=f"|S| scaled to {k}"))
    report.notes.append(
        "all kernels converge to the identical (src, dist) fixpoint; the "
        "paper trades SPFA's extra relaxations for asynchrony, recovering "
        "the loss with the priority queue (Figs. 5-6)"
    )
    report.data = raw
    return report
