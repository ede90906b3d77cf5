"""Graph partitioning for the simulated cluster.

The paper: "the data graph is partitioned; partitions have approximately
equal share of vertices; each partition is assigned to an MPI process",
with HavoqGT's **vertex-cut delegate** mechanism distributing the edges of
high-degree vertices across ranks to tame the load imbalance of scale-free
graphs.

:class:`PartitionedGraph` captures all of that:

* an ``owner[v]`` map (contiguous equal-vertex blocks),
* per-rank local arc slices for edge-centric scans,
* an optional delegate set (``degree > delegate_threshold``) whose arcs
  are striped round-robin over all ranks,
* cut statistics used by the cost model and the memory model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

__all__ = ["PartitionedGraph", "block_partition"]


@dataclass
class PartitionedGraph:
    """A :class:`CSRGraph` split across ``n_ranks`` simulated processes.

    Attributes
    ----------
    graph:
        The underlying shared topology (the simulation keeps one copy in
        process memory; *logical* ownership is what matters).
    n_ranks:
        Simulated MPI world size.
    owner:
        ``int64[n_vertices]`` rank owning each vertex's state.
    arc_rank:
        ``int64[2|E|]`` rank holding each *arc* ``(u -> v)`` for
        edge-centric work.  For ordinary vertices this is ``owner[u]``;
        for delegates the arcs are striped round-robin.
    delegates:
        Sorted vertex ids whose adjacency is striped (empty when delegate
        partitioning is off).
    """

    graph: CSRGraph
    n_ranks: int
    owner: np.ndarray
    arc_rank: np.ndarray
    delegates: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise PartitionError("need at least one rank")
        if self.owner.shape != (self.graph.n_vertices,):
            raise PartitionError("owner array shape mismatch")
        if self.arc_rank.shape != (self.graph.n_arcs,):
            raise PartitionError("arc_rank array shape mismatch")
        if self.owner.size and (self.owner.min() < 0 or self.owner.max() >= self.n_ranks):
            raise PartitionError("owner rank out of range")
        self._is_delegate = np.zeros(self.graph.n_vertices, dtype=bool)
        self._is_delegate[self.delegates] = True
        self._arc_count = np.bincount(self.arc_rank, minlength=self.n_ranks).astype(
            np.int64, copy=False
        )
        self._arc_count.flags.writeable = False
        tails = self.graph.arc_tails()
        self._off_owner_arcs = np.flatnonzero(self.arc_rank != self.owner[tails])
        self._off_owner_arcs.flags.writeable = False

    # ------------------------------------------------------------------ #
    def is_delegate(self, v: int) -> bool:
        """True iff ``v``'s adjacency is striped across ranks."""
        return bool(self._is_delegate[v])

    def delegate_mask(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_delegate` (used by the batched engine)."""
        return self._is_delegate[vertices]

    def local_arc_count(self) -> np.ndarray:
        """``int64[n_ranks]`` arcs held per rank (edge-centric load).

        Counted once when the partition is built and returned read-only,
        so a caller that wants to modify it must copy.
        """
        return self._arc_count

    def off_owner_arcs(self) -> np.ndarray:
        """Ascending indices of the arcs held by a rank that does not own
        their tail — under :func:`block_partition`, only delegate arcs,
        whose striping may move them off their tail's rank.

        Found once when the partition is built and returned read-only,
        so a caller that wants to modify it must copy.
        """
        return self._off_owner_arcs

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All arcs as ``(u, v, w, holding_rank)`` — the substrate for
        vectorised edge-centric phases (Alg. 5).  Every array is the
        graph's or the partition's own, read-only tails included."""
        g = self.graph
        return g.arc_tails(), g.indices, g.weights, self.arc_rank

    def slice_ranks(self, v: int) -> np.ndarray:
        """Ranks holding at least one arc of ``v`` (for delegates this is
        the broadcast fan-out of a state update)."""
        g = self.graph
        return np.unique(self.arc_rank[g.indptr[v]: g.indptr[v + 1]])

    def load_imbalance(self) -> float:
        """Max/mean arc load across ranks (1.0 = perfectly balanced)."""
        arcs = self.local_arc_count()
        mean = arcs.mean() if arcs.size else 0.0
        if mean == 0:
            return 1.0
        return float(arcs.max() / mean)


def _stripe_delegate_arcs(
    graph: CSRGraph,
    arc_rank: np.ndarray,
    delegates: np.ndarray,
    n_ranks: int,
) -> None:
    """Round-robin the arcs of each delegate vertex over all ranks,
    in place — HavoqGT's vertex-cut distribution of hub adjacency."""
    for v in delegates:
        s, e = int(graph.indptr[v]), int(graph.indptr[v + 1])
        arc_rank[s:e] = np.arange(e - s, dtype=np.int64) % n_ranks


def block_partition(
    graph: CSRGraph,
    n_ranks: int,
    *,
    delegate_threshold: Optional[int] = None,
) -> PartitionedGraph:
    """Contiguous equal-vertex-count blocks (``owner[v] = v * P // n``).

    Block partitioning keeps vertex counts balanced (the paper's stated
    property) but arc counts can skew badly on power-law graphs — which is
    exactly what ``delegate_threshold`` mitigates.
    """
    if n_ranks < 1:
        raise PartitionError("need at least one rank")
    n = graph.n_vertices
    owner = (np.arange(n, dtype=np.int64) * n_ranks) // max(n, 1)
    arc_rank = np.repeat(owner, np.diff(graph.indptr))
    delegates = _pick_delegates(graph, delegate_threshold)
    _stripe_delegate_arcs(graph, arc_rank, delegates, n_ranks)
    return PartitionedGraph(graph, n_ranks, owner, arc_rank, delegates)


def _pick_delegates(graph: CSRGraph, threshold: Optional[int]) -> np.ndarray:
    if threshold is None:
        return np.zeros(0, dtype=np.int64)
    if threshold < 1:
        raise PartitionError("delegate threshold must be >= 1")
    deg = graph.degree()
    return np.nonzero(deg > threshold)[0].astype(np.int64)
