"""Descriptive graph statistics (the columns of the paper's Table III)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.csr import CSRGraph

__all__ = ["GraphStats", "graph_stats"]


@dataclass(frozen=True)
class GraphStats:
    """Summary row mirroring Table III: ``|V|``, ``2|E|``, max/avg degree,
    weight range and in-memory size."""

    n_vertices: int
    n_arcs: int          # 2|E|, the convention Table III reports
    max_degree: int
    avg_degree: float
    weight_min: int
    weight_max: int
    nbytes: int

    def as_row(self) -> dict[str, object]:
        """Dict form for table rendering."""
        return {
            "|V|": self.n_vertices,
            "2|E|": self.n_arcs,
            "Max. degree": self.max_degree,
            "Avg. degree": round(self.avg_degree, 1),
            "Edge weight": f"[{self.weight_min}, {self.weight_max}]",
            "Size": self.nbytes,
        }


def graph_stats(graph: CSRGraph) -> GraphStats:
    """Compute the Table-III statistics for ``graph``."""
    if graph.n_arcs:
        wmin, wmax = int(graph.weights.min()), int(graph.weights.max())
    else:
        wmin = wmax = 0
    return GraphStats(
        n_vertices=graph.n_vertices,
        n_arcs=graph.n_arcs,
        max_degree=graph.max_degree,
        avg_degree=graph.avg_degree,
        weight_min=wmin,
        weight_max=wmax,
        nbytes=graph.nbytes(),
    )
