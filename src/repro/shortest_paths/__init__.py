"""Shortest-path kernels.

The paper's algorithm replaces all-pair-shortest-paths (APSP) among seeds —
the expensive step of the KMB algorithm — with Voronoi-cell computation
(one multi-source shortest-path sweep).  This package provides both, plus
classic single-source kernels used by baselines, tests and ablations.
"""

from repro.shortest_paths.backends import (
    BACKENDS,
    compute_multisource,
    get_backend,
)
from repro.shortest_paths.dijkstra import dijkstra, dijkstra_to_targets
from repro.shortest_paths.bellman_ford import bellman_ford
from repro.shortest_paths.voronoi import (
    INF,
    NO_VERTEX,
    VoronoiDiagram,
    compute_voronoi_cells,
)
from repro.shortest_paths.apsp import seed_pairs_apsp
from repro.shortest_paths.delta_stepping import delta_stepping
from repro.shortest_paths.multisource import (
    compute_voronoi_cells_delta_stepping,
    compute_voronoi_cells_spfa,
)
from repro.shortest_paths.near_shortest import (
    NearShortestResult,
    near_shortest_path_edges,
    path_dag,
    shortest_path_edges,
)
from repro.shortest_paths.vectorized import compute_voronoi_cells_delta_numpy

__all__ = [
    "BACKENDS",
    "INF",
    "NO_VERTEX",
    "NearShortestResult",
    "VoronoiDiagram",
    "bellman_ford",
    "compute_multisource",
    "compute_voronoi_cells",
    "compute_voronoi_cells_delta_numpy",
    "compute_voronoi_cells_delta_stepping",
    "compute_voronoi_cells_spfa",
    "delta_stepping",
    "dijkstra",
    "dijkstra_to_targets",
    "get_backend",
    "near_shortest_path_edges",
    "path_dag",
    "seed_pairs_apsp",
    "shortest_path_edges",
]
