"""Analytic machine model for the discrete-event simulation.

Every simulated quantity reported by the library flows through this one
dataclass, so the assumptions are in a single place.  Constants are loosely
calibrated to the paper's testbed (Quartz: Xeon E5-2695v4 nodes, Omni-Path
interconnect, 16 ranks/node) at the granularity that matters for *shape*:

* per-visitor CPU cost (vertex-centric phases),
* per-arc CPU cost (edge-centric scans),
* local vs remote message delivery latency,
* bandwidth-proportional transfer cost,
* LogP-style tree allreduce for collectives,
* per-edge cost of the sequential MST.

The defaults make a ~100K-arc graph take on the order of seconds of
*simulated* time on a handful of ranks, which is the regime of the paper's
small-graph tables; absolute values are not meaningful, ratios are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MachineModel"]


@dataclass(frozen=True)
class MachineModel:
    """Cost constants (seconds) for the simulated cluster.

    Attributes
    ----------
    t_visit:
        CPU time to dequeue one visitor message and run its callback
        (excluding emission costs).
    t_emit:
        CPU time to construct and enqueue one outgoing message.
    t_edge_scan:
        CPU time per arc in edge-centric scans (Alg. 5's local phase).
    t_local_latency:
        Delivery latency for a message whose target lives on the sending
        rank (in-memory queue push).
    t_remote_latency:
        One-way network latency for a cross-rank message.
    bytes_per_message:
        Wire size of one visitor message (header + payload).
    bandwidth:
        Per-link bandwidth in bytes/second (only the bandwidth term of
        large transfers; small visitor messages are latency-dominated).
    alpha_collective:
        Per-tree-level latency of an allreduce.
    beta_collective:
        Per-byte cost of an allreduce.
    t_mst_edge:
        Sequential per-edge-log-term cost of the Prim MST on ``G'1``
        (calibrated so ~50M edges ≈ 2 s, matching §V-B's report).
    """

    t_visit: float = 2.0e-7
    t_emit: float = 5.0e-8
    t_edge_scan: float = 6.0e-8
    t_local_latency: float = 2.0e-7
    t_remote_latency: float = 3.0e-6
    bytes_per_message: int = 40
    bandwidth: float = 5.0e9
    alpha_collective: float = 8.0e-6
    beta_collective: float = 6.0e-10
    t_mst_edge: float = 1.6e-9

    # ------------------------------------------------------------------ #
    def message_delay(self, same_rank: bool) -> float:
        """End-to-end delivery delay of one visitor message."""
        if same_rank:
            return self.t_local_latency
        return self.t_remote_latency + self.bytes_per_message / self.bandwidth

    def allreduce_time(self, n_ranks: int, nbytes: int) -> float:
        """Tree allreduce estimate: ``alpha * ceil(log2 P) + beta * bytes``.

        Matches the textbook recursive-doubling model; exact constants do
        not matter, the log-P latency term and linear byte term do (they
        produce the Fig. 4/8 behaviour where the ``|S| = 10K`` collective
        on a ~50M-entry buffer becomes visible).
        """
        if n_ranks <= 1:
            return 0.0
        levels = math.ceil(math.log2(n_ranks))
        return self.alpha_collective * levels + self.beta_collective * nbytes * levels

    def mst_time(self, n_edges: int, n_vertices: int) -> float:
        """Sequential Prim on the replicated distance graph ``G'1``."""
        if n_edges <= 0:
            return 0.0
        return self.t_mst_edge * n_edges * max(1.0, math.log2(max(2, n_vertices)))
