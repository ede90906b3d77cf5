"""Common scaffolding for experiment modules."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api.schema import jsonable
from repro.core.config import SolverConfig
from repro.core.result import SteinerTreeResult
from repro.core.solver import DistributedSteinerSolver
from repro.harness.datasets import load_dataset
from repro.runtime.queues import QueueDiscipline
from repro.seeds.selection import select_seeds

__all__ = [
    "ExperimentReport",
    "phase_times",
    "seeds_for",
    "solve",
    "solve_on_engines",
]


@dataclass
class ExperimentReport:
    """Rendered + raw output of one experiment.

    ``tables`` holds pre-rendered ASCII blocks; ``data`` holds the raw
    numbers for programmatic use (tests, benches, EXPERIMENTS.md).
    """

    exp_id: str
    title: str
    tables: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable report (title + tables + notes)."""
        parts = [f"== {self.exp_id}: {self.title} =="]
        parts.extend(self.tables)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Machine-readable form (``repro-steiner run --json``): the raw
        ``data`` plus metadata, with NumPy scalars coerced."""
        return json.dumps(
            {
                "exp_id": self.exp_id,
                "title": self.title,
                "notes": self.notes,
                "data": jsonable(self.data),
            },
            indent=indent,
        )


def seeds_for(dataset: str, k: int, *, seed: int = 1):
    """BFS-level seeds (the paper's default strategy) on a stand-in."""
    return select_seeds(load_dataset(dataset), k, "bfs-level", seed=seed)


def solve(
    dataset: str,
    k: int,
    *,
    n_ranks: int = 16,
    discipline: QueueDiscipline | str = QueueDiscipline.PRIORITY,
    seed: int = 1,
    **config_kwargs,
) -> SteinerTreeResult:
    """Run the distributed solver on a stand-in with BFS-level seeds."""
    graph = load_dataset(dataset)
    seeds = select_seeds(graph, k, "bfs-level", seed=seed)
    cfg = SolverConfig(n_ranks=n_ranks, discipline=discipline, **config_kwargs)
    return DistributedSteinerSolver(graph, cfg).solve(seeds)


def phase_times(result: SteinerTreeResult) -> dict[str, float]:
    """``{phase name: sim seconds}`` in Alg. 3 order."""
    return {p.name: p.sim_time for p in result.phases}


def solve_on_engines(
    graph,
    seeds,
    *,
    n_ranks: int = 16,
    engines: Sequence[str] | None = None,
    **config_kwargs,
) -> dict[str, tuple[SteinerTreeResult, float]]:
    """Solve one instance on every runtime engine, wall-timing each run.

    The engines' parity contract is enforced before anything is
    returned: every engine must produce the bit-identical tree (raises
    :class:`AssertionError` otherwise), so the timings are always
    verified-correct runs.  Returns ``{engine: (result, wall_seconds)}``
    in :data:`~repro.runtime.engines.ENGINES` order (a fixed iteration
    order, so two reports line up); used by the async-vs-BSP ablation.
    Extra keyword arguments (``discipline=``, ...) reach every run's
    :class:`~repro.core.config.SolverConfig`.
    """
    import numpy as np

    from repro.runtime.engines import ENGINES

    names = list(engines) if engines is not None else list(ENGINES)
    results: dict[str, tuple[SteinerTreeResult, float]] = {}
    reference: SteinerTreeResult | None = None
    for engine in names:
        solver = DistributedSteinerSolver(
            graph, SolverConfig(n_ranks=n_ranks, engine=engine, **config_kwargs)
        )
        t0 = time.perf_counter()
        res = solver.solve(seeds)
        wall = time.perf_counter() - t0
        if reference is None:
            reference = res
        elif not (
            np.array_equal(reference.edges, res.edges)
            and reference.total_distance == res.total_distance
        ):
            raise AssertionError(f"engine {engine!r} changed the output tree")
        results[engine] = (res, wall)
    return results
