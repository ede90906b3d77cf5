"""The paper's primary contribution: parallel 2-approximation Steiner
minimal trees via Voronoi cells.

Two entry points compute the *same* tree (asserted by the test suite):

* :func:`repro.core.sequential.sequential_steiner_tree` — the
  shared-memory reference of the parallel algorithm (paper Alg. 2),
  pure NumPy, fastest wall-clock path for library users;
* :class:`repro.core.solver.DistributedSteinerSolver` — the simulated
  distributed implementation (paper Alg. 3–6) running on the
  :mod:`repro.runtime` discrete-event engine, which additionally yields
  per-phase simulated times, message counts and memory estimates — the
  quantities the paper's evaluation reports.
"""

from repro.core.config import SolverConfig
from repro.core.result import SteinerTreeResult, PHASE_NAMES
from repro.core.sequential import sequential_steiner_tree
from repro.core.solver import DistributedSteinerSolver

__all__ = [
    "PHASE_NAMES",
    "DistributedSteinerSolver",
    "SolverConfig",
    "SteinerTreeResult",
    "sequential_steiner_tree",
]
