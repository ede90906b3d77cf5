"""Steiner-tree edge identification — the paper's Algorithm 6.

After pruning, each surviving ("active") cross-cell edge ``(u, v)`` seeds
two predecessor walks: from ``u`` back to ``src(u)`` and from ``v`` back
to ``src(v)``.  Every hop contributes one tree edge
``(pred(vj), vj)``.  The walks run as an asynchronous vertex-centric
traversal; a *visited* guard stops a walk as soon as it merges into a path
that has already been collected, which is what keeps the message count of
this phase "orders of magnitude smaller" than the graph (paper Table IV /
Fig. 6).

Edge weights are recovered arithmetically: on a tight shortest-path hop,
``d(pred(v), v) = dist(v) - dist(pred(v))`` exactly (integer weights), so
no adjacency lookup is needed — mirroring the distributed setting where
``v``'s rank knows both distances but would otherwise have to search its
CSR row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Tuple

import numpy as np

from repro.arrays import sorted_unique
from repro.runtime.partition import PartitionedGraph

__all__ = ["TreeEdgeProgram", "walk_tree_edges"]


class TreeEdgeProgram:
    """Alg. 6 as an engine program.

    ``collected`` marks vertices whose hop to their predecessor has been
    emitted.  Each collected vertex contributes exactly one tree edge, so
    :meth:`edge_arrays` reads the edge set off that mask once the phase
    has run.
    """

    __slots__ = ("part", "src", "pred", "dist", "collected")

    def __init__(
        self,
        partition: PartitionedGraph,
        src: np.ndarray,
        pred: np.ndarray,
        dist: np.ndarray,
    ) -> None:
        self.part = partition
        self.src = src
        self.pred = pred
        self.dist = dist
        self.collected = np.zeros(partition.graph.n_vertices, dtype=bool)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The walked tree edges as ``(lo, hi, w)`` arrays with
        ``lo < hi``: one row ``(pred(v), v)`` per collected vertex, in
        vertex order."""
        v = np.flatnonzero(self.collected)
        p = self.pred[v]
        return np.minimum(p, v), np.maximum(p, v), self.dist[v] - self.dist[p]

    def initial_messages(
        self, endpoints: np.ndarray
    ) -> Iterator[tuple[int, Tuple]]:
        """One visitor per active cross-cell edge endpoint (Alg. 6
        lines 5-6)."""
        for v in endpoints:
            yield (int(v), (int(v),))

    def priority(self, payload: Tuple) -> float:
        """Tree-edge walks carry no distance ordering; constant priority
        makes priority and FIFO disciplines equivalent here."""
        return 0.0

    def visit(
        self, vertex: int, payload: Tuple, emit: Callable[[int, Tuple], None]
    ) -> None:
        """One predecessor hop (Alg. 6 visit): record the edge to
        ``pred(vertex)`` and continue the walk unless done."""
        if self.src[vertex] == vertex:  # reached the cell's seed
            return
        if self.collected[vertex]:  # another walk already passed through
            return
        self.collected[vertex] = True
        p = int(self.pred[vertex])
        if p != self.src[vertex]:
            emit(p, (p,))

    def visit_rank(
        self, rank: int, payload: Tuple, emit: Callable[[int, Tuple], None]
    ) -> None:
        """Unused: tree-edge walks are vertex-addressed only."""
        raise AssertionError("tree-edge walks never address ranks")

    # ------------------------------------------------------------------ #
    # batch protocol (bsp-batched engine): one superstep = array ops
    # ------------------------------------------------------------------ #
    batch_payload_width = 1

    def batch_encode(self, target: int, payload: Tuple) -> Tuple[int]:
        """Payload as an int row: the walked vertex itself."""
        return payload

    def batch_visit(
        self, targets: np.ndarray, payload: np.ndarray, emitter: Any
    ) -> None:
        """One superstep of predecessor hops over message arrays.

        Duplicate arrivals at a vertex within a superstep collapse to
        one hop (the ``collected`` guard absorbs the rest), so a unique
        pass over the targets is exactly the scalar semantics.  The
        collected set — hence the edge set — is order-independent.
        """
        v = sorted_unique(targets)
        live = (self.src[v] != v) & ~self.collected[v]
        v = v[live]
        if v.size == 0:
            return
        self.collected[v] = True
        p = self.pred[v]
        walk = p != self.src[v]
        if walk.any():
            out = p[walk].astype(np.int64)
            emitter.emit(
                self.part.owner[v[walk]].astype(np.int64),
                out,
                out.reshape(-1, 1),
            )

    def batch_visit_rank(
        self, ranks: np.ndarray, payload: np.ndarray, emitter: Any
    ) -> None:
        """Unused: tree-edge walks are vertex-addressed only."""
        raise AssertionError("tree-edge walks never address ranks")


def walk_tree_edges(
    src: np.ndarray,
    pred: np.ndarray,
    dist: np.ndarray,
    endpoints: np.ndarray,
) -> list[tuple[int, int, int]]:
    """Sequential equivalent of :class:`TreeEdgeProgram` (used by the
    shared-memory reference path; identical output by construction)."""
    n = src.size
    collected = np.zeros(n, dtype=bool)
    edges: list[tuple[int, int, int]] = []
    stack = [int(v) for v in endpoints]
    while stack:
        v = stack.pop()
        if src[v] == v or collected[v]:
            continue
        collected[v] = True
        p = int(pred[v])
        w = int(dist[v] - dist[p])
        edges.append((min(p, v), max(p, v), w))
        if p != src[v]:
            stack.append(p)
    return edges

