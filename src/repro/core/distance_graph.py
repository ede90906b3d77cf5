"""Distance-graph construction — the paper's Algorithm 5 (min-distance
cross-cell edges) plus its cost model.

Semantics (Mehlhorn / paper §II):

    ``E'1 = {(s, t) : an edge (u, v) in E exists with u in N(s),
    v in N(t)}`` and
    ``d'1(s, t) = min(d1(s, u) + d(u, v) + d1(v, t))``.

The simulation computes the *global* result with one vectorised pass over
the unique undirected edges — element-for-element what the per-rank local
scans followed by ``MPI_Allreduce(MPI_MIN)`` would produce — and charges
the distributed cost separately:

* **Local Min Dist. Edge** (edge-centric, asynchronous in the paper):
  every rank scans its local arcs; boundary vertices' ``(src, dist)``
  states are pulled from their owner ranks, one message per
  (remote vertex, holding rank) pair — a halo exchange.
* **Global Min Dist. Edge** (collective): allreduce over the ``EN``
  buffer.  The paper allocates the full ``C(|S|, 2)`` buffer up front
  (Alg. 3 line 2) — the memory model accounts for that — but only the
  observed pairs can carry finite distances, so the simulation reduces
  over the observed-pair buffer.

Tie-breaking: among equal-distance cross-cell edges bridging the same
cell pair, the lexicographically smallest ``(u, v)`` wins — the effect of
the paper's second ``Allreduce(MPI_MIN)`` over source-vertex ids.

The build works in cell-index space.  One ``n``-entry lookup maps each
vertex's owning seed to that seed's rank among the sorted seeds; the
cross-cell edges are found from those ranks and compacted by index.  The
two reductions then take one of two forms, chosen from the input sizes:

* **pair table**, when ``k**2 <= PAIR_TABLE_RATIO * cross edges`` for
  ``k`` seeds: Alg. 3's ``EN`` buffer in memory.  ``np.minimum.at``
  reduces ``d'`` into a dense ``k x k`` table, the same table then
  reduces the packed ``u * n + v`` of the rows tied at ``d'``, and the
  rows are read off in row-major order.
* **sort**, otherwise (a ``k = 2000`` table would hold 4M entries): one
  sort groups the candidates by cell pair, a segmented minimum gives
  ``d'`` and a second one over the tied rows picks the bridge.

Either way the rows come out in cell-pair order.  The halo census of the
cost model (:func:`local_min_edge_costs`) makes the same kind of choice
between a dense mark and a sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

from repro.arrays import run_starts, sorted_unique
from repro.runtime.cost_model import MachineModel
from repro.runtime.partition import PartitionedGraph

__all__ = ["DistanceGraph", "build_distance_graph", "local_min_edge_costs"]

#: The pair table is used while ``k**2 <= PAIR_TABLE_RATIO * cross edges``.
PAIR_TABLE_RATIO = 4
#: The halo mark is used while ``n * P <= HALO_MARK_RATIO * halo records``.
HALO_MARK_RATIO = 8

_STATE_MSG_BYTES = 24  # (vertex, src, dist) halo-exchange record
_EMPTY = np.iinfo(np.int64).max  # pair-table entry no candidate reached
_UNREACHED = -1  # cell index of a vertex with src == -1
_NOT_A_SEED = -2  # cell index of a src entry that no seed matches


@dataclass
class DistanceGraph:
    """``G'1`` plus the bridging edges of ``EN``.

    For row ``i``: cells ``(cell_s[i], cell_t[i])`` (seed vertex ids,
    ``s < t``) are bridged by graph edge ``(u[i], v[i])`` with
    ``u in N(s), v in N(t)`` and ``d1(s,t) = dprime[i]``.  ``index_s[i]``
    and ``index_t[i]`` are the positions of ``cell_s[i]`` and
    ``cell_t[i]`` in :attr:`seeds`, in the order the caller gave.
    """

    seeds: np.ndarray
    cell_s: np.ndarray
    cell_t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dprime: np.ndarray
    index_s: np.ndarray
    index_t: np.ndarray

    @property
    def n_edges(self) -> int:
        """``|E'1|`` — observed cross-cell pairs."""
        return int(self.cell_s.size)

    def seed_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(si, ti)`` rows as indices into :attr:`seeds` (for MST):
        :attr:`index_s` and :attr:`index_t`, which the build computed."""
        return self.index_s, self.index_t


def build_distance_graph(
    graph: "CSRGraph",
    seeds: np.ndarray,
    src: np.ndarray,
    dist: np.ndarray,
) -> DistanceGraph:
    """Vectorised global construction of ``G'1`` / ``EN``.

    Per cell pair, ``d'`` is the minimum candidate distance and the
    bridge is the smallest ``(u, v)`` among the candidates at that
    distance; rows come out in cell-pair order.  The reductions run on
    the pair table while ``k**2 <= PAIR_TABLE_RATIO`` times the number of
    cross-cell edges, and on one sort otherwise (see the module
    docstring).

    ``seeds`` need not be sorted; a repeated seed id maps to its last
    position.  Raises :class:`KeyError` naming the first ``src`` entry
    that is not a seed.
    """
    n = graph.n_vertices
    seeds = np.asarray(seeds, dtype=np.int64)
    # the distinct seeds, ascending, and each one's last caller position
    by_id = np.argsort(seeds, kind="stable")
    ranked = seeds[by_id]
    last = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=last[:-1])
    ranked, position = ranked[last], by_id[last]
    k = ranked.size

    # cell[x] is the rank of src[x] among the seeds; src == -1 reads the
    # extra last entry
    rank_of = np.full(n + 1, _NOT_A_SEED, dtype=np.int64)
    rank_of[ranked] = np.arange(k, dtype=np.int64)
    rank_of[n] = _UNREACHED
    cell = rank_of[src]
    stray = cell == _NOT_A_SEED
    if stray.any():
        raise KeyError(int(src[stray.argmax()]))

    eu, ev, ew = graph.edge_array()
    cu, cv = cell[eu], cell[ev]
    cross = np.flatnonzero((cu != cv) & (cu >= 0) & (cv >= 0))
    if cross.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return DistanceGraph(seeds, empty, empty, empty, empty, empty, empty, empty)

    eu, ev, cu, cv = eu[cross], ev[cross], cu[cross], cv[cross]
    d_arr = dist[eu] + ew[cross] + dist[ev]
    pair = np.minimum(cu, cv) * k + np.maximum(cu, cv)

    def bridges(rows: np.ndarray) -> np.ndarray:
        # packed (u, v) of the given candidates, u in the lower-rank cell
        swap = cu[rows] > cv[rows]
        bu, bv = eu[rows], ev[rows]
        return np.where(swap, bv, bu) * np.int64(n) + np.where(swap, bu, bv)

    if k * k <= PAIR_TABLE_RATIO * cross.size:
        table = np.full(k * k, _EMPTY, dtype=np.int64)
        np.minimum.at(table, pair, d_arr)
        tied = np.flatnonzero(d_arr == table[pair])
        pairs = np.flatnonzero(table != _EMPTY)
        dprime = table[pairs]
        # reuse the table for the bridge reduction over the tied rows
        table[pairs] = _EMPTY
        np.minimum.at(table, pair[tied], bridges(tied))
        bridge = table[pairs]
    else:
        order = np.argsort(pair)
        key, d_arr = pair[order], d_arr[order]
        starts = np.flatnonzero(run_starts(key))
        dprime = np.minimum.reduceat(d_arr, starts)
        tied = np.flatnonzero(
            d_arr == np.repeat(dprime, np.diff(starts, append=key.size))
        )
        # every pair has a tied row, so the tied rows' runs are the pairs
        bridge = np.minimum.reduceat(
            bridges(order[tied]), np.flatnonzero(run_starts(key[tied]))
        )
        pairs = key[starts]
    rank_s, rank_t = np.divmod(pairs, k)
    u, v = np.divmod(bridge, np.int64(n))
    return DistanceGraph(
        seeds=seeds,
        cell_s=ranked[rank_s],
        cell_t=ranked[rank_t],
        u=u,
        v=v,
        dprime=dprime,
        index_s=position[rank_s],
        index_t=position[rank_t],
    )


def local_min_edge_costs(
    partition: PartitionedGraph,
    machine: MachineModel,
) -> tuple[float, int, int]:
    """Simulated cost of the local min-distance-edge phase.

    Returns ``(sim_time, n_remote_messages, bytes_sent)``.

    Model: each rank scans its local arcs (``t_edge_scan`` each).  For
    every arc whose remote endpoint's state lives elsewhere, the owner
    must ship that endpoint's ``(src, dist)`` once per (vertex, holding
    rank) pair — the halo exchange.  Phase time is the slowest rank's
    scan-plus-send plus one network latency for the exchange wave.

    The census counts the distinct records ``x * P + h`` (state of ``x``
    shipped to holding rank ``h``).  While ``n * P <= HALO_MARK_RATIO``
    times the number of records before deduplication, it marks them in a
    dense ``n x P`` boolean array and counts each rank's column;
    otherwise it deduplicates them with one sort.
    """
    u, v, _, arc_rank = partition.arc_arrays()
    owner, n_ranks = partition.owner, partition.n_ranks
    n = partition.graph.n_vertices
    # halo records: state of x shipped to holding rank h, for x in {u, v}
    remote_v = np.flatnonzero(arc_rank != owner[v])
    remote_u = np.flatnonzero(arc_rank != owner[u])
    keys_v = v[remote_v] * np.int64(n_ranks) + arc_rank[remote_v]
    keys_u = u[remote_u] * np.int64(n_ranks) + arc_rank[remote_u]
    if n * n_ranks <= HALO_MARK_RATIO * (keys_v.size + keys_u.size):
        mark = np.zeros(n * n_ranks, dtype=bool)
        mark[keys_v] = True
        mark[keys_u] = True
        recv_per_rank = np.count_nonzero(mark.reshape(n, n_ranks), axis=0)
    else:
        halo = sorted_unique(np.concatenate([keys_v, keys_u]))
        # key % n_ranks is the holding rank: one receive per distinct record
        recv_per_rank = np.bincount(halo % n_ranks, minlength=n_ranks)
    n_halo = int(recv_per_rank.sum())
    per_rank = (
        partition.local_arc_count() * machine.t_edge_scan
        + recv_per_rank * machine.t_visit
    )
    sim_time = float(per_rank.max()) if per_rank.size else 0.0
    if n_ranks > 1 and n_halo:
        sim_time += machine.t_remote_latency
    return sim_time, n_halo, n_halo * _STATE_MSG_BYTES
