"""The distributed Steiner-tree solver — the paper's Algorithm 3.

Orchestrates the six phases over the simulated runtime:

1. ``Voronoi Cell``          — async vertex-centric (Alg. 4, DES);
2. ``Local Min Dist. Edge``  — edge-centric local scans + halo exchange
   (Alg. 5, analytic cost + vectorised semantics);
3. ``Global Min Dist. Edge`` — ``MPI_Allreduce(MIN)`` over the ``EN``
   buffer (collective cost model);
4. ``MST``                   — sequential Prim on the replicated ``G'1``;
5. ``Global Edge Pruning``   — drop non-MST cross edges + second
   allreduce for per-pair uniqueness;
6. ``Steiner Tree Edge``     — async predecessor walks (Alg. 6, DES).

The message-driven phases (1 and 6) execute on the runtime engine
selected by ``SolverConfig.engine`` — a key of
:data:`repro.runtime.engines.ENGINES` (``async-heap``, ``bsp``,
``bsp-batched``); every engine converges to the identical tree.

The solver reports, per phase, the simulated parallel time and message
counts — the exact quantities behind the paper's Figs. 3-6 — plus a
cluster-wide memory estimate (Fig. 8) and the tree itself.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph
    from repro.serve.cache import SolveCache

import numpy as np

from repro.core.config import SolverConfig
from repro.core.distance_graph import (
    build_distance_graph,
    local_min_edge_costs,
)
from repro.core.result import PHASE_NAMES, SteinerTreeResult
from repro.core.tree_edge import TreeEdgeProgram
from repro.core.voronoi_visitor import VoronoiProgram
from repro.errors import DisconnectedSeedsError
from repro.mst.prim import prim_mst
from repro.mst.union_find import UnionFind
from repro.runtime.engine import PhaseStats
from repro.runtime.engines import make_engine
from repro.runtime.memory import estimate_memory
from repro.runtime.partition import block_partition, hash_partition
from repro.seeds.selection import validate_seed_set
from repro.shortest_paths.voronoi import (
    VoronoiDiagram,
    canonicalize_predecessors,
)

__all__ = ["DistributedSteinerSolver", "distributed_steiner_tree"]

# collective element sizes (bytes): EN distance entries carry (d, u, v);
# the pruning reduce carries (u, v) source-id pairs (paper Alg. 5).
_EN_REDUCE_BYTES = 24
_PRUNE_REDUCE_BYTES = 16


class DistributedSteinerSolver:
    """Reusable solver bound to one graph and one configuration.

    Partitioning happens once in the constructor (the paper excludes
    "graph partitioning and loading times" from its metric); ``solve``
    may then be called with many seed sets, as an interactive analyst
    session would.

    Parameters
    ----------
    config:
        A ready :class:`SolverConfig`; alternatively pass its fields as
        keyword arguments.  Mixing both raises :class:`TypeError`.
    cache:
        Optional result cache (duck-typed —
        :class:`repro.serve.cache.SolveCache` is the shipped
        implementation).  When present, ``solve`` is keyed by
        ``(graph_hash, frozenset(seeds), config_fingerprint)``: a
        solution hit skips the computation entirely (the returned
        result carries ``provenance["cache_hit"] = True``), and — for
        backend-driven configurations — a Voronoi-diagram hit skips the
        multi-source sweep while still assembling phases 2-6.
    """

    def __init__(
        self,
        graph: "CSRGraph",
        config: SolverConfig | None = None,
        *,
        cache: "SolveCache | None" = None,
        **config_kwargs: Any,
    ) -> None:
        if config is not None and config_kwargs:
            raise TypeError(
                "pass either a SolverConfig or its fields as keyword "
                f"arguments, not both: {sorted(config_kwargs)}"
            )
        self.graph = graph
        self.config = config if config is not None else SolverConfig(**config_kwargs)
        self.cache = cache
        partition_fn = (
            block_partition if self.config.partition == "block" else hash_partition
        )
        self.partition = partition_fn(
            graph,
            self.config.n_ranks,
            delegate_threshold=self.config.delegate_threshold,
        )

    # ------------------------------------------------------------------ #
    def solution_key(self, seeds: Sequence[int]) -> tuple:
        """The cache key of one solve: ``(graph_hash, frozenset(seeds),
        config_fingerprint)`` — the contract documented in
        ``docs/serve.md``."""
        return (
            self.graph.content_hash(),
            frozenset(int(s) for s in seeds),
            self.config.fingerprint(),
        )

    def _diagram_key(self, seeds_arr: np.ndarray) -> tuple:
        """Diagram cache key: like :meth:`solution_key` but fingerprinted
        by the sweep kernel alone — any configuration sharing the
        backend shares the converged diagram."""
        return (
            self.graph.content_hash(),
            frozenset(int(s) for s in seeds_arr),
            f"diagram:{self.config.voronoi_backend}",
        )

    # ------------------------------------------------------------------ #
    def solve(
        self,
        seeds: Sequence[int],
        *,
        diagram: VoronoiDiagram | None = None,
    ) -> SteinerTreeResult:
        """Compute a 2-approximate Steiner minimal tree for ``seeds``.

        Parameters
        ----------
        diagram:
            A pre-converged Voronoi diagram for exactly these seeds —
            the serve batcher passes the per-request slice of a fused
            multi-source sweep here, skipping phase 1 while phases 2-6
            run normally.  Because every diagram is the canonical
            ``(dist, owner)`` fixpoint, the resulting tree is
            bit-identical to an independent solve.

        Raises
        ------
        DisconnectedSeedsError
            If the seeds do not share a connected component.
        """
        cfg = self.config
        machine = cfg.machine
        t0 = time.perf_counter()
        seeds_arr = validate_seed_set(self.graph, seeds)
        k = seeds_arr.size
        phases: list[PhaseStats] = []

        provenance: dict[str, Any] = {
            "engine": cfg.engine,
            "backend": cfg.voronoi_backend,
            "config_fingerprint": cfg.fingerprint(),
            "cache_hit": False,
        }
        if self.cache is not None:
            provenance["graph_hash"] = self.graph.content_hash()
            key = self.solution_key(seeds_arr)
            cached = self.cache.get_solution(key)
            if cached is not None:
                return replace(
                    cached,
                    wall_time_s=time.perf_counter() - t0,
                    provenance={**cached.provenance, "cache_hit": True},
                )

        if diagram is not None:
            if not np.array_equal(
                np.asarray(diagram.seeds, dtype=np.int64), seeds_arr
            ):
                raise ValueError(
                    "injected diagram was computed for a different seed set"
                )
            provenance["sweep"] = "injected"

        engine = make_engine(
            cfg.engine,
            self.partition,
            machine,
            cfg.discipline,
            aggregate_remote=cfg.aggregate_remote_messages,
        )

        # ---- Phase 1: Voronoi Cell (Alg. 4) --------------------------- #
        # Either simulate the asynchronous message-driven kernel (the
        # paper-faithful default, yields the Figs. 3-6 message trace),
        # run a sequential backend from the table, or adopt a
        # pre-converged diagram (injected by the serve batcher or found
        # in the diagram cache) — all converge to the same deterministic
        # (dist, owner) fixpoint, so phases 2-6 and the output tree are
        # identical.  Only the simulated sweep has a simulated time; a
        # backend, cached or injected sweep records 0.0 and no messages.
        vc_stats = PhaseStats(
            name=PHASE_NAMES[0], sim_time=0.0, busy_time=np.zeros(cfg.n_ranks)
        )
        if diagram is not None:
            src, dist, pred = diagram.src, diagram.dist, diagram.pred
        elif cfg.voronoi_backend is None:
            provenance["sweep"] = "simulated"
            program = VoronoiProgram(self.partition)
            vc_stats = engine.run_phase(
                PHASE_NAMES[0],
                program,
                list(program.initial_messages(seeds_arr)),
                # 0 means uncapped, as it always has (falsy-guard legacy)
                max_events=cfg.max_events or None,
            )
            src, dist = program.src, program.dist
            pred = canonicalize_predecessors(self.graph, src, dist)
        else:
            cached_vd = None
            if self.cache is not None:
                cached_vd = self.cache.get_diagram(
                    self._diagram_key(seeds_arr)
                )
            if cached_vd is not None:
                provenance["sweep"] = "diagram-cache"
                src, dist, pred = cached_vd.src, cached_vd.dist, cached_vd.pred
            else:
                from repro.shortest_paths.backends import compute_multisource

                provenance["sweep"] = "backend"
                vd = compute_multisource(
                    self.graph, seeds_arr, backend=cfg.voronoi_backend
                )
                src, dist, pred = vd.src, vd.dist, vd.pred
                if self.cache is not None:
                    self.cache.put_diagram(self._diagram_key(seeds_arr), vd)
        phases.append(vc_stats)

        # ---- Phase 2: Local Min Dist. Edge (Alg. 5, local) ------------ #
        dg = build_distance_graph(self.graph, seeds_arr, src, dist)
        lme_time, lme_msgs, lme_bytes = local_min_edge_costs(
            self.partition, machine
        )
        phases.append(
            PhaseStats(
                name=PHASE_NAMES[1],
                sim_time=lme_time,
                n_messages_remote=lme_msgs,
                bytes_sent=lme_bytes,
                busy_time=np.zeros(cfg.n_ranks),
            )
        )

        # ---- Phase 3: Global Min Dist. Edge (collective) -------------- #
        # The paper allreduces the *full* C(|S|, 2) EN buffer (its |S|=10K
        # memory spike); we charge that cost while reducing only observed
        # pairs semantically.  With collective_chunk_elements set, the
        # §V-F chunked variant pays one latency term per chunk but bounds
        # the peak communication buffer.
        n_pairs_full = k * (k - 1) // 2
        gme_time = self._collective_time(n_pairs_full, _EN_REDUCE_BYTES)
        phases.append(
            PhaseStats(
                name=PHASE_NAMES[2],
                sim_time=gme_time,
                bytes_sent=n_pairs_full * _EN_REDUCE_BYTES,
                busy_time=np.zeros(cfg.n_ranks),
            )
        )

        # ---- Phase 4: MST of G'1 (sequential Prim, replicated) -------- #
        si, ti = dg.seed_indices()
        mst_idx = prim_mst(k, si, ti, dg.dprime)
        self._check_connected(seeds_arr, si, ti, mst_idx, k)
        # analytic time: Prim + copying results into distributed state
        mst_time = machine.mst_time(dg.n_edges, k) + (
            dg.n_edges * 8 / machine.bandwidth
        )
        phases.append(
            PhaseStats(
                name=PHASE_NAMES[3],
                sim_time=mst_time,
                busy_time=np.zeros(cfg.n_ranks),
            )
        )

        # ---- Phase 5: Global Edge Pruning (collective) ---------------- #
        active = np.zeros(dg.n_edges, dtype=bool)
        active[mst_idx] = True
        prune_time = self._collective_time(n_pairs_full, _PRUNE_REDUCE_BYTES)
        phases.append(
            PhaseStats(
                name=PHASE_NAMES[4],
                sim_time=prune_time,
                bytes_sent=n_pairs_full * _PRUNE_REDUCE_BYTES,
                busy_time=np.zeros(cfg.n_ranks),
            )
        )

        # ---- Phase 6: Steiner Tree Edge (Alg. 6) ---------------------- #
        tree_prog = TreeEdgeProgram(self.partition, src, pred, dist)
        endpoints = np.concatenate([dg.u[active], dg.v[active]])
        te_stats = engine.run_phase(
            PHASE_NAMES[5],
            tree_prog,
            list(tree_prog.initial_messages(endpoints)),
        )
        phases.append(te_stats)

        # ---- assemble the tree ---------------------------------------- #
        # No (u, v) row repeats: bridge rows join two different cells,
        # walked rows stay inside one, and the collected guard walks each
        # vertex at most once along strictly decreasing dist.
        bu, bv = dg.u[active], dg.v[active]
        walk_lo, walk_hi, walk_w = tree_prog.edge_arrays()
        lo = np.concatenate([np.minimum(bu, bv), walk_lo])
        hi = np.concatenate([np.maximum(bu, bv), walk_hi])
        w = np.concatenate([dg.dprime[active] - dist[bu] - dist[bv], walk_w])
        edges = np.stack([lo, hi, w], axis=1)[np.lexsort((hi, lo))]
        total = int(w.sum())

        # chunked collectives bound the pairwise buffer that must be
        # resident at once (§V-F); single-shot needs the full C(k, 2)
        chunk = cfg.collective_chunk_elements
        resident_pairs = n_pairs_full if chunk is None else min(chunk, n_pairs_full)
        memory = estimate_memory(
            self.partition,
            k,
            peak_queue_total=max(vc_stats.peak_queue_total, te_stats.peak_queue_total),
            n_distance_edges=resident_pairs,
            machine=machine,
        )
        out_diagram = None
        if cfg.collect_diagram:
            out_diagram = VoronoiDiagram(
                seeds=seeds_arr, src=src, pred=pred, dist=dist
            )

        result = SteinerTreeResult(
            seeds=seeds_arr,
            edges=edges,
            total_distance=total,
            phases=phases,
            wall_time_s=time.perf_counter() - t0,
            memory=memory,
            diagram=out_diagram,
            provenance=provenance,
        )
        if self.cache is not None:
            self.cache.put_solution(self.solution_key(seeds_arr), result)
        return result

    # ------------------------------------------------------------------ #
    def _collective_time(self, n_elements: int, elem_bytes: int) -> float:
        """Allreduce duration, single-shot or chunked per the config."""
        from repro.runtime.collectives import chunked_allreduce_time

        cfg = self.config
        if cfg.collective_chunk_elements is None:
            return cfg.machine.allreduce_time(cfg.n_ranks, n_elements * elem_bytes)
        return chunked_allreduce_time(
            cfg.machine,
            cfg.n_ranks,
            n_elements,
            cfg.collective_chunk_elements,
            elem_bytes=elem_bytes,
        )

    @staticmethod
    def _check_connected(
        seeds_arr: np.ndarray,
        si: np.ndarray,
        ti: np.ndarray,
        mst_idx: np.ndarray,
        k: int,
    ) -> None:
        """All seeds must end up in one MST component (else no Steiner
        tree exists)."""
        if mst_idx.size == k - 1:
            return
        uf = UnionFind(k)
        for e in mst_idx:
            uf.union(int(si[e]), int(ti[e]))
        root = uf.find(0)
        unreached = [int(seeds_arr[i]) for i in range(k) if uf.find(i) != root]
        raise DisconnectedSeedsError(unreached)


def distributed_steiner_tree(
    graph: "CSRGraph",
    seeds: Sequence[int],
    *,
    config: SolverConfig | None = None,
    cache: "SolveCache | None" = None,
    **config_kwargs: Any,
) -> SteinerTreeResult:
    """One-shot convenience wrapper around
    :class:`DistributedSteinerSolver`.

    Configuration may be given as a ready :class:`SolverConfig` *or* as
    keyword arguments in its field names.
    """
    return DistributedSteinerSolver(
        graph, config, cache=cache, **config_kwargs
    ).solve(seeds)
