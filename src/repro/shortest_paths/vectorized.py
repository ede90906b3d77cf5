"""Vectorised multi-source Δ-stepping on the raw CSR arrays.

The reference multi-source kernels (:mod:`repro.shortest_paths.voronoi`,
:mod:`repro.shortest_paths.multisource`) relax one edge per Python
bytecode loop iteration, even though :class:`~repro.graph.csr.CSRGraph`
already stores the adjacency as flat NumPy arrays.  This module runs the
Meyer–Sanders Δ-stepping schedule with *bucket-wide* NumPy relaxations:

* the pending vertices are an id array beside a boolean mask, so
  finding the current bucket scans the pending vertices, not all ``n``;
* all out-arcs of the frontier are gathered in one shot (``np.repeat``
  over the CSR offsets — no per-vertex slicing);
* the lexicographic ``(dist, owner)`` winner per target vertex is
  selected by packing the pair into one int64 key and reducing with
  ``np.minimum.at`` (:func:`adopt_lexmin`), replacing the per-edge
  compare-and-swap.  The reduction table is the caller's: one
  :func:`key_table` per sweep, which each wave reads and resets at the
  heads it touched only, so it stays all sentinel between waves;
* the vertices settled in a bucket are deduplicated with one sort
  (:func:`repro.arrays.sorted_unique`), and when no arc is heavier than
  Δ (every unit-weight graph) the light-arc filter and the heavy phase
  are skipped.

A wave's work is therefore proportional to its candidates and the
pending set, not to ``n``.

Per bucket phase the Python interpreter executes O(1) statements; all
per-edge work happens inside compiled NumPy kernels.  On the ~100K-arc
generator graphs this is an order of magnitude faster than the heap
reference (see ``benchmarks/bench_backends.py``).

Determinism: the kernel converges to the same unique lexicographic
``(dist, owner)`` fixpoint as every other kernel in the library — the
smaller-seed-id tie-break — and predecessors are rewritten by the shared
:func:`~repro.shortest_paths.voronoi.canonicalize_predecessors` pass, so
the output is bit-for-bit identical to the reference (property-tested in
``tests/test_backends.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arrays import run_starts, sorted_unique
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.seeds.selection import validate_seed_set
from repro.shortest_paths.voronoi import (
    INF,
    NO_VERTEX,
    VoronoiDiagram,
    canonicalize_predecessors,
)

__all__ = [
    "adopt_lexmin",
    "compute_voronoi_cells_delta_numpy",
    "default_delta",
    "key_table",
    "out_arcs",
]


def default_delta(graph: CSRGraph) -> int:
    """Bucket width heuristic for the vectorised kernel.

    The kernel batches a whole bucket per NumPy call, so its cost is
    ``(number of relaxation waves) x (cost per wave)``.  Narrow buckets
    mean more buckets but shorter light-edge fixpoint iterations inside
    each (fewer duplicated relaxations reach the packed-key reduction).
    Neither side wins on every graph.  Best of 5 sweeps, in ms, on the
    full suite of ``benchmarks/bench_common.SUITES`` (2-CPU shared VM):

    * ``rmat-100k-w100``: mean 14.6, mean/2 17.0, mean/4 10.2, mean/8 11.7;
    * ``er-100k-w100``: mean 15.5, mean/2 15.3, mean/4 17.2, mean/8 21.3;
    * ``grid-100k-unit``: unit weights, so Δ = 1 at every choice.

    mean/4 is kept: it is the fastest on rmat, and 12% slower than the
    best (mean/2) on er.
    """
    if graph.n_arcs == 0:
        return 1
    return max(1, int(graph.weights.mean()) // 4)


def out_arcs(
    frontier: np.ndarray,
    indptr: np.ndarray,
    degrees: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Arc ids of every out-arc of ``frontier``, plus the repeated tails.

    Pure index arithmetic: for frontier vertex ``u`` with CSR range
    ``[indptr[u], indptr[u+1])`` the arc ids are that range; all ranges
    are materialised with one ``np.repeat`` and one ``np.arange``.
    """
    counts = degrees[frontier]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ends = np.cumsum(counts)
    # arc id = indptr[u] + (position within u's segment)
    arc_ids = (
        np.repeat(indptr[frontier] - (ends - counts), counts)
        + np.arange(total, dtype=np.int64)
    )
    tails = np.repeat(frontier, counts)
    return arc_ids, tails


_KEY_SENTINEL = np.iinfo(np.int64).max


def key_table(n: int) -> np.ndarray:
    """An ``n``-entry reduction table for :func:`adopt_lexmin`, all
    sentinel.  A caller allocates one per sweep and passes it to every
    call; each call leaves it all sentinel again."""
    return np.full(n, _KEY_SENTINEL, dtype=np.int64)


def adopt_lexmin(
    heads: np.ndarray,
    nd: np.ndarray,
    owner: np.ndarray,
    dist: np.ndarray,
    src: np.ndarray,
    best: np.ndarray,
) -> np.ndarray:
    """Adopt each head's lexicographic-minimum improving candidate.

    Candidate ``i`` offers vertex ``heads[i]`` the state ``(nd[i],
    owner[i])``.  Candidates that do not improve their head's current
    ``(dist, src)`` state are dropped; each remaining head takes the
    smallest ``(nd, owner)`` pair offered to it, written into ``dist``
    and ``src`` in place.  Returns the adopting vertices, ascending and
    unique.

    The reduction packs each pair into one int64 key ``nd * n + owner``
    (``0 <= owner < n`` keeps the packing order-preserving) and reduces
    with ``np.minimum.at`` into ``best``, the caller's :func:`key_table`:
    all sentinel on entry, and again on return, because only the
    entries of the heads just reduced are read and reset.  The winners
    are those heads, found by one sort of them, so a call costs time in
    its candidates, not in ``n``.  When the packed key could overflow it
    sorts the candidates instead and leaves ``best`` untouched.

    >>> dist, src, best = np.array([0, 9, INF]), np.array([0, 0, -1]), key_table(3)
    >>> adopt_lexmin(
    ...     np.array([1, 1, 2, 2, 1]), np.array([5, 5, 7, 3, 9]),
    ...     np.array([2, 1, 0, 2, 0]), dist, src, best,
    ... )
    array([1, 2])
    >>> dist.tolist(), src.tolist()
    ([0, 5, 3], [0, 1, 2])
    >>> bool((best == key_table(3)).all())
    True
    """
    better = np.flatnonzero(
        (nd < dist[heads]) | ((nd == dist[heads]) & (owner < src[heads]))
    )
    # rebinding frees the unfiltered arrays when the caller passed temporaries
    heads, nd, owner = heads[better], nd[better], owner[better]
    if heads.size == 0:
        return heads
    n = dist.size
    if int(nd.max()) <= (_KEY_SENTINEL - n) // n:
        np.minimum.at(best, heads, nd * n + owner)
        winners = sorted_unique(heads)
        dist[winners], src[winners] = np.divmod(best[winners], n)
        best[winners] = _KEY_SENTINEL
        return winners
    order = np.lexsort((owner, nd, heads))
    first = order[run_starts(heads[order])]
    dist[heads[first]], src[heads[first]] = nd[first], owner[first]
    return heads[first]


def _relax(
    arc_ids: np.ndarray,
    tails: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    dist: np.ndarray,
    src: np.ndarray,
    pending: np.ndarray,
    best: np.ndarray,
) -> np.ndarray:
    """One vectorised relaxation wave over ``arc_ids``: each head adopts
    its best ``(dist[tail] + w, src[tail])`` candidate and turns pending.
    Returns the adopters that were not pending yet."""
    if arc_ids.size == 0:
        return arc_ids
    winners = adopt_lexmin(
        indices[arc_ids], dist[tails] + weights[arc_ids], src[tails], dist, src, best
    )
    fresh = winners[~pending[winners]]
    pending[fresh] = True
    return fresh


def compute_voronoi_cells_delta_numpy(
    graph: CSRGraph,
    seeds: Sequence[int],
    delta: int | None = None,
) -> VoronoiDiagram:
    """Voronoi diagram via vectorised multi-source Δ-stepping.

    Drop-in replacement for
    :func:`repro.shortest_paths.voronoi.compute_voronoi_cells` with the
    canonical predecessor assignment (the backend contract); same
    ``(dist, src)`` fixpoint, NumPy bucket relaxations instead of a
    per-edge Python loop.

    Parameters
    ----------
    delta:
        Bucket width; defaults to :func:`default_delta`.
    """
    seeds_arr = validate_seed_set(graph, seeds)
    if delta is None:
        delta = default_delta(graph)
    if delta < 1:
        raise GraphError("delta must be >= 1")
    dist, src = _delta_stepping(graph, seeds_arr, delta)
    pred = canonicalize_predecessors(graph, src, dist)
    return VoronoiDiagram(seeds=seeds_arr, src=src, pred=pred, dist=dist)


def _delta_stepping(
    graph: CSRGraph, seeds_arr: np.ndarray, delta: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(dist, src)`` fixpoint of the sweep.  Its working arrays
    (the key table, the pending set, the light-arc mask) are freed on
    return, before the caller canonicalises the predecessors."""
    n = graph.n_vertices
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    degrees = np.diff(indptr)
    # with no arc heavier than delta (every unit-weight graph) each light
    # phase relaxes all arcs and no heavy phase is needed
    light = weights <= delta if int(weights.max(initial=0)) > delta else None

    dist = np.full(n, INF, dtype=np.int64)
    src = np.full(n, NO_VERTEX, dtype=np.int64)
    dist[seeds_arr] = 0
    src[seeds_arr] = seeds_arr
    # the pending set as a mask and as an id list, so a wave scans the
    # pending vertices only, not all n
    pending = np.zeros(n, dtype=bool)
    pending[seeds_arr] = True
    pending_ids = seeds_arr
    best = key_table(n)

    while pending_ids.size:
        b = int(dist[pending_ids].min()) // delta
        lo = b * delta
        hi = lo + delta

        # light-edge phase: iterate until the bucket stops changing
        # (owner-only improvements re-enter the same bucket)
        settled: list[np.ndarray] = []
        while True:
            d = dist[pending_ids]
            in_b = (d >= lo) & (d < hi)
            take = np.flatnonzero(in_b)
            if take.size == 0:
                break
            in_bucket = pending_ids[take]
            pending_ids = pending_ids[np.flatnonzero(~in_b)]
            pending[in_bucket] = False
            arc_ids, tails = out_arcs(in_bucket, indptr, degrees)
            if light is not None:
                settled.append(in_bucket)
                keep = np.flatnonzero(light[arc_ids])
                # rebinding frees the whole out-arc lists before the relaxation
                arc_ids, tails = arc_ids[keep], tails[keep]
            fresh = _relax(arc_ids, tails, indices, weights, dist, src, pending, best)
            pending_ids = np.concatenate([pending_ids, fresh])

        # heavy-edge phase: once, from the vertices that settled in b
        if light is not None and settled:
            settled_arr = sorted_unique(np.concatenate(settled))
            settled_arr = settled_arr[dist[settled_arr] // delta == b]
            arc_ids, tails = out_arcs(settled_arr, indptr, degrees)
            keep = np.flatnonzero(~light[arc_ids])
            arc_ids, tails = arc_ids[keep], tails[keep]
            fresh = _relax(arc_ids, tails, indices, weights, dist, src, pending, best)
            pending_ids = np.concatenate([pending_ids, fresh])
    return dist, src
