"""Graph substrate: CSR storage, generators, weights, connectivity, IO.

This package provides everything the Steiner-tree layers need from a graph
library, implemented on flat NumPy arrays for cache-friendly, vectorised
access (the Python analogue of the paper's CSR C++ data structures and the
HavoqGT binary graph format).
"""

from repro.graph.csr import CSRGraph
from repro.graph.weights import assign_uniform_weights, WeightSpec
from repro.graph.connectivity import (
    bfs_levels,
    connected_components,
    largest_component_vertices,
)
from repro.graph.generators import (
    erdos_renyi_graph,
    grid_graph,
    preferential_attachment_graph,
    random_geometric_graph,
    rmat_graph,
)

__all__ = [
    "CSRGraph",
    "WeightSpec",
    "assign_uniform_weights",
    "bfs_levels",
    "connected_components",
    "largest_component_vertices",
    "erdos_renyi_graph",
    "grid_graph",
    "preferential_attachment_graph",
    "random_geometric_graph",
    "rmat_graph",
]
