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
the paper's second ``Allreduce(MPI_MIN)`` over source-vertex ids.  The
build mirrors those two reductions: one sort groups the candidates by
cell pair, a segmented minimum gives ``d'``, and a second segmented
minimum over the packed ``u * n + v`` of the rows tied at ``d'`` picks
the bridge.
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
from repro.shortest_paths.voronoi import NO_VERTEX

__all__ = ["DistanceGraph", "build_distance_graph", "local_min_edge_costs"]

_STATE_MSG_BYTES = 24  # (vertex, src, dist) halo-exchange record
_NO_BRIDGE = np.iinfo(np.int64).max  # packed (u, v) of a row that lost on d'


@dataclass
class DistanceGraph:
    """``G'1`` plus the bridging edges of ``EN``.

    For row ``i``: cells ``(cell_s[i], cell_t[i])`` (seed vertex ids,
    ``s < t``) are bridged by graph edge ``(u[i], v[i])`` with
    ``u in N(s), v in N(t)`` and ``d1(s,t) = dprime[i]``.
    """

    seeds: np.ndarray
    cell_s: np.ndarray
    cell_t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dprime: np.ndarray

    @property
    def n_edges(self) -> int:
        """``|E'1|`` — observed cross-cell pairs."""
        return int(self.cell_s.size)

    def seed_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(si, ti)`` rows as indices into :attr:`seeds` (for MST).

        Raises :class:`KeyError` naming the first cell id that is not a
        seed.  :attr:`seeds` need not be sorted; a repeated seed id maps
        to its last position.
        """
        seeds = np.asarray(self.seeds, dtype=np.int64)
        order = None
        if not (seeds[1:] > seeds[:-1]).all():
            order = np.argsort(seeds, kind="stable")
            seeds = seeds[order]

        def index(cells: np.ndarray) -> np.ndarray:
            pos = np.searchsorted(seeds, cells, side="right") - 1
            found = pos >= 0
            found[found] = seeds[pos[found]] == cells[found]
            if not found.all():
                raise KeyError(int(cells[~found][0]))
            return pos if order is None else order[pos]

        return index(self.cell_s), index(self.cell_t)


def build_distance_graph(
    graph: "CSRGraph",
    seeds: np.ndarray,
    src: np.ndarray,
    dist: np.ndarray,
) -> DistanceGraph:
    """Vectorised global construction of ``G'1`` / ``EN``.

    One argsort on the cell-pair key ``s * n + t`` groups the cross-cell
    edge candidates; per group, ``d'`` is the minimum candidate distance
    and the bridge is the smallest ``(u, v)`` among the candidates at
    that distance.  Rows come out in cell-pair key order.
    """
    eu, ev, ew = graph.edge_array()
    su, sv = src[eu], src[ev]
    cross = (su != sv) & (su != NO_VERTEX) & (sv != NO_VERTEX)
    eu, ev, ew, su, sv = eu[cross], ev[cross], ew[cross], su[cross], sv[cross]
    if eu.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return DistanceGraph(seeds, empty, empty, empty, empty, empty)

    n = np.int64(graph.n_vertices)
    d_arr = dist[eu] + ew + dist[ev]
    # orient the bridge so u lies in the smaller-id cell
    swap = su > sv
    key = np.where(swap, sv, su) * n + np.where(swap, su, sv)
    packed = np.where(swap, ev, eu) * n + np.where(swap, eu, ev)

    order = np.argsort(key)
    key, d_arr, packed = key[order], d_arr[order], packed[order]
    starts = np.flatnonzero(run_starts(key))
    dprime = np.minimum.reduceat(d_arr, starts)
    tied = d_arr == np.repeat(dprime, np.diff(starts, append=key.size))
    bridge = np.minimum.reduceat(np.where(tied, packed, _NO_BRIDGE), starts)
    cell_s, cell_t = np.divmod(key[starts], n)
    u, v = np.divmod(bridge, n)
    return DistanceGraph(
        seeds=seeds, cell_s=cell_s, cell_t=cell_t, u=u, v=v, dprime=dprime
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
    """
    u, v, _, arc_rank = partition.arc_arrays()
    owner = partition.owner
    # halo records: state of x shipped to holding rank h, for x in {u, v}
    remote_v = arc_rank != owner[v]
    remote_u = arc_rank != owner[u]
    halo_keys = np.concatenate(
        [
            v[remote_v] * np.int64(partition.n_ranks) + arc_rank[remote_v],
            u[remote_u] * np.int64(partition.n_ranks) + arc_rank[remote_u],
        ]
    )
    halo = sorted_unique(halo_keys)
    n_halo = int(halo.size)
    # key % n_ranks is the holding rank: one receive per distinct record
    recv_per_rank = np.bincount(
        halo % partition.n_ranks, minlength=partition.n_ranks
    )
    arcs_per_rank = partition.local_arc_count()
    per_rank = (
        arcs_per_rank * machine.t_edge_scan
        + recv_per_rank * machine.t_visit
    )
    sim_time = float(per_rank.max()) if per_rank.size else 0.0
    if partition.n_ranks > 1 and n_halo:
        sim_time += machine.t_remote_latency
    return sim_time, n_halo, n_halo * _STATE_MSG_BYTES
