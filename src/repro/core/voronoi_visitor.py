"""Distributed Voronoi-cell computation — the paper's Algorithm 4.

A :class:`~repro.runtime.engine.VertexProgram` implementing the
asynchronous Bellman–Ford-style relaxation:

* every seed starts with ``(src, dist) = (s, 0)`` and visits its
  neighbours (``do_traversal(init_all)`` injects one bootstrap message per
  seed);
* a visitor carries ``(vp, t, r)`` — the sending vertex, its owning seed
  and the tentative distance ``r = dist(vp) + d(vp, vj)``;
* the visited vertex adopts the new state when it is a **lexicographic
  improvement** ``(r, t) < (dist, src)`` — strictly closer, or equally
  close to a smaller seed id.  The tie rule makes the converged ``(dist,
  src)`` fixpoint unique and equal to the sequential
  :func:`~repro.shortest_paths.voronoi.compute_voronoi_cells` result (the
  integration tests assert bit-equality).  The program keeps no
  predecessor: the solver derives the canonical one from the converged
  ``(src, dist)`` (:func:`~repro.shortest_paths.voronoi.canonicalize_predecessors`);
* on adoption the vertex notifies its neighbours; with **delegate**
  partitioning, a high-degree vertex instead fans out one ``expand``
  message per rank holding a slice of its adjacency, and each slice rank
  relays to its local neighbours — HavoqGT's vertex-cut broadcast.

Message priority is the carried distance ``r``, so under the priority
discipline the queue serves closest-first — the paper's Dijkstra-like
acceleration (§IV).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Tuple

import numpy as np

from repro.runtime.partition import PartitionedGraph
from repro.shortest_paths.vectorized import adopt_lexmin, out_arcs
from repro.shortest_paths.voronoi import INF, NO_VERTEX

__all__ = ["VoronoiProgram"]


class VoronoiProgram:
    """Alg. 4 as an engine program.  Holds the per-vertex state arrays
    ``src`` (owning seed, :data:`NO_VERTEX` until reached) and ``dist``
    (distance to it, :data:`INF` until reached).

    Payload formats
    ---------------
    vertex message  ``(vp, t, r)``:
        relax the visited vertex with candidate ``(dist=r, src=t)``;
        ``vp``, the sending vertex, only orders equal candidates
        (:meth:`sort_key`) and marks a seed's bootstrap self-visit.
    rank message ``("expand", u, t, r)``:
        scan the local adjacency slice of delegate ``u`` (whose state is
        ``(t, r)``) and emit relax messages to its neighbours.
    """

    __slots__ = ("part", "src", "dist", "_indptr", "_indices", "_weights", "_degrees")

    def __init__(self, partition: PartitionedGraph) -> None:
        self.part = partition
        n = partition.graph.n_vertices
        self.src = np.full(n, NO_VERTEX, dtype=np.int64)
        self.dist = np.full(n, INF, dtype=np.int64)
        g = partition.graph
        self._indptr = g.indptr
        self._indices = g.indices
        self._weights = g.weights
        self._degrees = g.degree()

    # ------------------------------------------------------------------ #
    def initial_messages(
        self, seeds: np.ndarray
    ) -> Iterator[tuple[int, Tuple]]:
        """Bootstrap: initialise every seed and trigger its first visit.

        Paper Alg. 3 INITIALIZATION sets seed state; the subsequent
        ``do_traversal`` lets seeds push to neighbours (Alg. 4 line 5).
        """
        for s in seeds:
            s = int(s)
            self.src[s] = s
            self.dist[s] = 0
            yield (s, (s, s, 0))

    # ------------------------------------------------------------------ #
    def priority(self, payload: Tuple) -> float:
        """Serve smaller tentative distances first (paper's priority
        queue); the FIFO discipline ignores this."""
        if payload[0] == "expand":
            return float(payload[3])
        return float(payload[2])

    def sort_key(self, payload: Tuple) -> Tuple[int, int, int]:
        """Total in-superstep order for the BSP engines: the candidate's
        full lexicographic rank ``(r, t, vp)``.

        With a *total* order, a superstep accepts exactly one candidate
        per vertex — the lexicographic-minimum improving one — which is
        the per-vertex reduction the batched engine computes with array
        operations; the scalar priority alone would leave ``r``-ties in
        arrival order and admit order-dependent extra acceptances.
        """
        if payload[0] == "expand":
            _, u, t, r = payload
            return (r, t, u)
        vp, t, r = payload
        return (r, t, vp)

    # ------------------------------------------------------------------ #
    def visit(
        self, vertex: int, payload: Tuple, emit: Callable[[int, Tuple], None]
    ) -> None:
        """Relax ``vertex`` with the carried candidate state (Alg. 4
        lines 4-13)."""
        vp, t, r = payload
        # bootstrap self-visit of a seed: propagate unconditionally
        if vp == vertex and t == vertex and r == 0:
            self._expand(vertex, t, 0, emit)
            return
        # lexicographic improvement test:  (r, t) < (dist, src)
        dv, sv = self.dist[vertex], self.src[vertex]
        if r < dv or (r == dv and t < sv):
            self.dist[vertex] = r
            self.src[vertex] = t
            self._expand(vertex, t, r, emit)

    def visit_rank(
        self, rank: int, payload: Tuple, emit: Callable[[int, Tuple], None]
    ) -> None:
        """Delegate slice expansion on ``rank``."""
        _, u, t, r = payload
        indptr, indices, weights = self._indptr, self._indices, self._weights
        arc_rank = self.part.arc_rank
        for i in range(indptr[u], indptr[u + 1]):
            if arc_rank[i] != rank:
                continue
            emit(int(indices[i]), (u, t, int(r + weights[i])))

    # ------------------------------------------------------------------ #
    def _expand(
        self, u: int, t: int, r: int, emit: Callable[[int, Tuple], None]
    ) -> None:
        """Notify neighbours of ``u``'s new state (Alg. 4 lines 10-13)."""
        if self.part.is_delegate(u):
            for rank in self.part.slice_ranks(u):
                emit(-int(rank) - 1, ("expand", u, t, r))
            return
        indptr, indices, weights = self._indptr, self._indices, self._weights
        for i in range(indptr[u], indptr[u + 1]):
            emit(int(indices[i]), (u, t, int(r + weights[i])))

    # ------------------------------------------------------------------ #
    # batch protocol (bsp-batched engine): one superstep = array ops
    # ------------------------------------------------------------------ #
    batch_payload_width = 3

    def batch_encode(self, target: int, payload: Tuple) -> Tuple[int, int, int]:
        """Payload as an int row: ``(vp, t, r)`` / expand ``(u, t, r)``
        (the target's sign already distinguishes the two forms)."""
        if payload[0] == "expand":
            return (payload[1], payload[2], payload[3])
        return payload

    def batch_visit(
        self, targets: np.ndarray, payload: np.ndarray, emitter: Any
    ) -> None:
        """One superstep of relaxations over message arrays.

        Per vertex, a superstep under the total :meth:`sort_key` order
        accepts exactly the lexicographic-minimum improving ``(r, t)``
        candidate (every later candidate compares ``>=`` the adopted
        state, so the improvement test fails) — computed here by
        :func:`~repro.shortest_paths.vectorized.adopt_lexmin` instead of
        one Python callback per message.
        """
        vp, t, r = payload[:, 0], payload[:, 1], payload[:, 2]
        adopted = adopt_lexmin(targets, r, t, self.dist, self.src)
        # a seed's bootstrap message offers the state the seed already
        # holds, so it adopts nothing; it expands unconditionally
        boot = (vp == targets) & (t == targets) & (r == 0)
        if boot.any():
            adopted = np.concatenate([targets[boot], adopted])
        self._batch_expand(adopted, emitter)

    def batch_visit_rank(
        self, ranks: np.ndarray, payload: np.ndarray, emitter: Any
    ) -> None:
        """Delegate slice expansions (hub vertices are few, so the outer
        loop is per message; the arc scan itself is vectorised)."""
        indptr, indices, weights = self._indptr, self._indices, self._weights
        arc_rank = self.part.arc_rank
        for rank, (u, t, r) in zip(ranks, payload):
            arcs = np.arange(indptr[u], indptr[u + 1], dtype=np.int64)
            arcs = arcs[arc_rank[arcs] == rank]
            if arcs.size:
                out = np.empty((arcs.size, 3), dtype=np.int64)
                out[:, 0] = u
                out[:, 1] = t
                out[:, 2] = r + weights[arcs]
                emitter.emit(
                    np.full(arcs.size, rank, dtype=np.int64),
                    indices[arcs].astype(np.int64),
                    out,
                )

    # ------------------------------------------------------------------ #
    def _batch_expand(self, vs: np.ndarray, emitter: Any) -> None:
        """Vectorised :meth:`_expand` for every adopting vertex at once,
        each with its just-adopted ``(src, dist)``: neighbour targets
        gathered with ``np.repeat`` over CSR rows (:func:`out_arcs`)."""
        part = self.part
        owner = part.owner
        if part.delegates.size:
            deleg = part.delegate_mask(vs)
            for v in vs[deleg]:
                slices = part.slice_ranks(int(v))
                out = np.empty((slices.size, 3), dtype=np.int64)
                out[:, 0] = v
                out[:, 1] = self.src[v]
                out[:, 2] = self.dist[v]
                emitter.emit(
                    np.full(slices.size, owner[v], dtype=np.int64),
                    -slices.astype(np.int64) - 1,
                    out,
                )
            vs = vs[~deleg]
        arcs, tails = out_arcs(vs, self._indptr, self._degrees)
        if arcs.size:
            out = np.empty((arcs.size, 3), dtype=np.int64)
            out[:, 0] = tails
            out[:, 1] = self.src[tails]
            out[:, 2] = self.dist[tails] + self._weights[arcs]
            emitter.emit(owner[tails], self._indices[arcs], out)
