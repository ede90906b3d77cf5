"""Result objects for Steiner-tree computations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.runtime.engine import PhaseStats
from repro.runtime.memory import MemoryReport
from repro.shortest_paths.voronoi import VoronoiDiagram

__all__ = ["SteinerTreeResult", "PHASE_NAMES"]

#: The six phases of Alg. 3, in order, matching the paper's chart legends.
PHASE_NAMES = (
    "Voronoi Cell",
    "Local Min Dist. Edge",
    "Global Min Dist. Edge",
    "MST",
    "Global Edge Pruning",
    "Steiner Tree Edge",
)


@dataclass
class SteinerTreeResult:
    """A computed Steiner tree plus the measurements the paper reports.

    Attributes
    ----------
    seeds:
        The terminal set ``S`` (sorted vertex ids).
    edges:
        ``int64[k, 3]`` rows ``(u, v, w)`` with ``u < v`` — the tree edge
        set ``ES`` with distances ``dS`` (Table IV counts ``k``).
    total_distance:
        ``D(GS) = sum of edge weights`` — the quality metric of
        Tables V–VII.
    phases:
        Per-phase :class:`~repro.runtime.engine.PhaseStats` in
        :data:`PHASE_NAMES` order (distributed solver only; empty for the
        sequential reference).
    wall_time_s:
        Host wall-clock spent computing (the *honest* Python runtime; the
        simulated parallel time lives in ``phases``/:meth:`sim_time`).
    memory:
        Cluster-wide memory estimate (distributed solver only).
    diagram:
        The Voronoi diagram, when requested via
        ``SolverConfig.collect_diagram`` (or always, for the sequential
        reference — it is a by-product there).
    provenance:
        How this result was produced — the cache/batching contract of
        ``docs/serve.md``.  Keys the solver sets: ``engine``,
        ``backend``, ``config_fingerprint``, ``cache_hit`` (and
        ``graph_hash`` when a cache is attached); the serve layer adds
        ``batch_size``, ``coalesced``, ``fused_sweep`` and
        ``request_id``.  Always JSON-safe (scalars/strings only), so it
        passes through :meth:`to_json` unmodified.
    """

    seeds: np.ndarray
    edges: np.ndarray
    total_distance: int
    phases: list[PhaseStats] = field(default_factory=list)
    wall_time_s: float = 0.0
    memory: Optional[MemoryReport] = None
    diagram: Optional[VoronoiDiagram] = None
    provenance: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """``|ES|`` — the Table IV metric."""
        return int(self.edges.shape[0])

    def vertices(self) -> np.ndarray:
        """``VS``: every vertex incident to a tree edge plus all seeds
        (a single seed with no edges is still a valid 1-vertex tree)."""
        if self.edges.size == 0:
            return np.asarray(self.seeds, dtype=np.int64)
        return np.unique(
            np.concatenate([self.edges[:, 0], self.edges[:, 1], self.seeds])
        ).astype(np.int64)

    def steiner_vertices(self) -> np.ndarray:
        """``S' = VS \\ S`` — non-terminal tree vertices."""
        return np.setdiff1d(self.vertices(), self.seeds)

    def sim_time(self) -> float:
        """End-to-end simulated parallel time (sum of phase makespans)."""
        return float(sum(p.sim_time for p in self.phases))

    def phase_time(self, name: str) -> float:
        """Simulated time of one named phase."""
        for p in self.phases:
            if p.name == name:
                return p.sim_time
        raise KeyError(name)

    def message_count(self) -> int:
        """Total messages over all phases (Fig. 6 sums the async ones)."""
        return int(sum(p.n_messages for p in self.phases))

    def to_networkx(self) -> Any:
        """Tree as a :class:`networkx.Graph` (weights under ``weight``)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(int(s) for s in self.seeds)
        for u, v, w in self.edges:
            g.add_edge(int(u), int(v), weight=int(w))
        return g

    def to_payload(self) -> dict[str, Any]:
        """The canonical JSON-safe dict form — the shared schema of
        :func:`repro.api.schema.result_payload` (``schema_version``,
        ``seeds``, ``edges``, ``total_distance``, ``phases``,
        ``provenance``, ...), the exact ``result`` object the serve
        protocol returns."""
        from repro.api.schema import result_payload

        return result_payload(self)

    def to_json(self, *, indent: int | None = None) -> str:
        """:meth:`to_payload` as a JSON string."""
        import json

        return json.dumps(self.to_payload(), indent=indent)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"SteinerTree(|S|={len(self.seeds)}, |ES|={self.n_edges}, "
            f"D(GS)={self.total_distance}, sim_time={self.sim_time():.4f}s)"
        )
