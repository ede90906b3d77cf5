"""repro — Distributed 2-approximation Steiner minimal trees.

A full reproduction of *"Towards Distributed 2-Approximation Steiner
Minimal Trees in Billion-edge Graphs"* (Reza, Sanders, Pearce; IPDPS
2022, arXiv:2205.14503): the Voronoi-cell-based parallel algorithm, a
deterministic discrete-event simulation of its MPI/HavoqGT runtime, the
sequential 2-approximation baselines (KMB, Mehlhorn, WWW, Takahashi), an
exact solver for quality measurement, and a harness regenerating every
table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import grid_graph, sequential_steiner_tree
>>> g = grid_graph(8, 8)
>>> result = sequential_steiner_tree(g, seeds=[0, 7, 56, 63])
>>> result.total_distance >= 1
True

See ``examples/`` for realistic scenarios and ``DESIGN.md`` for the
architecture map.
"""

from repro.core import (
    DistributedSteinerSolver,
    SolverConfig,
    SteinerTreeResult,
    distributed_steiner_tree,
    sequential_steiner_tree,
)
from repro.errors import (
    ConvergenceError,
    DisconnectedSeedsError,
    GraphError,
    PartitionError,
    ReproError,
    SeedError,
    SimulationError,
    ValidationError,
)
from repro.graph import (
    CSRGraph,
    WeightSpec,
    assign_uniform_weights,
    erdos_renyi_graph,
    grid_graph,
    preferential_attachment_graph,
    random_geometric_graph,
    rmat_graph,
)
from repro.runtime import MachineModel, QueueDiscipline
from repro.seeds import SeedStrategy, select_seeds
from repro.validation import (
    approximation_error_pct,
    approximation_ratio,
    validate_steiner_tree,
)

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "ConvergenceError",
    "DisconnectedSeedsError",
    "DistributedSteinerSolver",
    "GraphError",
    "MachineModel",
    "PartitionError",
    "QueueDiscipline",
    "ReproError",
    "SeedError",
    "SeedStrategy",
    "SimulationError",
    "SolverConfig",
    "SteinerTreeResult",
    "ValidationError",
    "WeightSpec",
    "approximation_error_pct",
    "approximation_ratio",
    "assign_uniform_weights",
    "distributed_steiner_tree",
    "erdos_renyi_graph",
    "grid_graph",
    "preferential_attachment_graph",
    "random_geometric_graph",
    "rmat_graph",
    "select_seeds",
    "sequential_steiner_tree",
    "validate_steiner_tree",
    "__version__",
]
