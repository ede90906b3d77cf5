"""Simulated cost of a chunked ``MPI_Allreduce``.

The distributed algorithm uses ``MPI_Allreduce(MPI_MIN)`` twice (paper
Alg. 5): once over the per-rank min-distance cross-cell edge buffers
(``EN``) and once over source-vertex ids during global edge pruning.
The simulation computes the reduced result directly
(:func:`repro.core.distance_graph.build_distance_graph`), and the solver
charges a single-shot reduction through
:meth:`~repro.runtime.cost_model.MachineModel.allreduce_time`.

§V-F notes memory pressure from allreducing a ~50M-entry buffer in one
shot and that chunked collectives trade memory for time —
:func:`chunked_allreduce_time` models exactly that trade-off for the
Fig. 8 discussion.
"""

from __future__ import annotations

import math

from repro.runtime.cost_model import MachineModel

__all__ = ["chunked_allreduce_time"]


def chunked_allreduce_time(
    machine: MachineModel,
    n_ranks: int,
    n_elements: int,
    chunk_elements: int,
    elem_bytes: int = 8,
) -> float:
    """Duration when the buffer is reduced in fixed-size chunks.

    Each chunk pays the full latency term, so many small chunks are slower
    but bound the peak communication buffer to ``chunk_elements`` — the
    memory/runtime trade-off of §V-F.
    """
    if chunk_elements < 1:
        raise ValueError("chunk size must be >= 1")
    n_chunks = max(1, math.ceil(n_elements / chunk_elements))
    per_chunk = min(chunk_elements, n_elements)
    return n_chunks * machine.allreduce_time(n_ranks, per_chunk * elem_bytes)
