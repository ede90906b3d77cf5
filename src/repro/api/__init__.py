"""``repro.api`` — the stable public facade.

Everything a downstream consumer needs lives here, documented and
versioned; the server, the CLI, the examples and the tests all call
these entry points instead of reaching into ``repro.core`` internals:

* :func:`solve` — one-shot: graph (object or dataset name) + seeds +
  configuration keywords -> :class:`SteinerTreeResult`;
* :class:`Session` — open a graph once, issue many ``.solve()`` calls
  against warm partition/solver state (with optional result caching),
  close explicitly or via ``with``;
* :class:`SolverConfig` / :class:`SteinerTreeResult` — the
  configuration and result contracts, re-exported from
  :mod:`repro.core`;
* :mod:`repro.api.schema` — the versioned JSON request/response shapes
  shared by :meth:`SteinerTreeResult.to_json` and the
  ``repro-steiner serve`` protocol.

Quickstart
----------
>>> from repro import grid_graph
>>> from repro.api import Session, solve
>>> g = grid_graph(8, 8)
>>> solve(g, [0, 7, 56, 63], voronoi_backend="delta-numpy").n_edges >= 3
True
>>> with Session(g, voronoi_backend="delta-numpy") as session:
...     a = session.solve([0, 7, 56, 63])
...     b = session.solve([0, 63])
>>> a.total_distance >= b.total_distance
True
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.api import schema
from repro.api.schema import SCHEMA_VERSION
from repro.core.config import SolverConfig
from repro.core.result import SteinerTreeResult
from repro.core.sequential import sequential_steiner_tree
from repro.core.solver import DistributedSteinerSolver

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph
    from repro.serve.cache import SolveCache

__all__ = [
    "SCHEMA_VERSION",
    "Session",
    "SolverConfig",
    "SteinerTreeResult",
    "schema",
    "sequential_steiner_tree",
    "solve",
]


def _as_graph(graph: "CSRGraph | str") -> "CSRGraph":
    """Accept a :class:`~repro.graph.csr.CSRGraph` or a Table-III
    dataset name (``"LVJ"``, ``"MCO"``, ...)."""
    if isinstance(graph, str):
        from repro.harness.datasets import load_dataset

        return load_dataset(graph)
    return graph


def solve(
    graph: "CSRGraph | str",
    seeds: Sequence[int],
    *,
    config: SolverConfig | None = None,
    cache: "SolveCache | None" = None,
    **config_kwargs: Any,
) -> SteinerTreeResult:
    """Compute a 2-approximate Steiner minimal tree — the one documented
    entry point.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.csr.CSRGraph`, or a dataset name from
        :mod:`repro.harness.datasets` (loaded and memoised).
    seeds:
        The terminal set ``S`` (distinct vertex ids).
    config / config_kwargs:
        Either a ready :class:`SolverConfig` or its fields as keywords
        (``engine=...``, ``voronoi_backend=...``, ``n_ranks=...``); an
        unknown keyword raises :class:`TypeError`.  The default
        configuration simulates the paper-faithful asynchronous
        runtime; pass ``voronoi_backend="delta-numpy"`` for the fast
        vectorised sweep — the tree is identical either way.
    cache:
        Optional :class:`repro.serve.cache.SolveCache`-style cache; see
        :class:`~repro.core.solver.DistributedSteinerSolver`.

    For many solves on one graph, prefer :class:`Session` — it keeps
    the partition (and optionally a result cache) warm across calls.
    """
    if config is not None and config_kwargs:
        raise TypeError(
            "pass either a SolverConfig or its fields as keyword "
            f"arguments, not both: {sorted(config_kwargs)}"
        )
    return DistributedSteinerSolver(
        _as_graph(graph), config, cache=cache, **config_kwargs
    ).solve(seeds)


class Session:
    """A warm solver bound to one graph, for many-query workloads.

    Opening a session loads/partitions the graph once; every
    :meth:`solve` then reuses that state (the paper's interactive
    analyst scenario, and the building block of ``repro-steiner
    serve``).  Configuration overrides per call are allowed — a solver
    is kept warm per distinct configuration fingerprint.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.csr.CSRGraph` or a dataset name.
    config / config_kwargs:
        Session-default configuration, as for :func:`solve`.
    cache:
        Optional result cache shared by every solver in the session
        (:class:`repro.serve.cache.SolveCache` for the shipped LRU +
        disk implementation).  Repeated seed sets then hit the cache
        (``provenance["cache_hit"]``) instead of re-solving.

    Use as a context manager, or call :meth:`close` explicitly; solving
    on a closed session raises :class:`RuntimeError`.
    """

    def __init__(
        self,
        graph: "CSRGraph | str",
        *,
        config: SolverConfig | None = None,
        cache: "SolveCache | None" = None,
        **config_kwargs: Any,
    ) -> None:
        if config is not None and config_kwargs:
            raise TypeError(
                "pass either a SolverConfig or its fields as keyword "
                f"arguments, not both: {sorted(config_kwargs)}"
            )
        self.graph = _as_graph(graph)
        self.config = config if config is not None else SolverConfig(**config_kwargs)
        self.cache = cache
        self._solvers: dict[str, DistributedSteinerSolver] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    def solver_for(self, config: SolverConfig) -> DistributedSteinerSolver:
        """The warm solver for ``config`` (created on first use), keyed
        by the configuration fingerprint."""
        if self._closed:
            raise RuntimeError("Session is closed")
        key = config.fingerprint()
        solver = self._solvers.get(key)
        if solver is None:
            solver = DistributedSteinerSolver(
                self.graph, config, cache=self.cache
            )
            self._solvers[key] = solver
        return solver

    def solve(self, seeds: Sequence[int], **overrides: Any) -> SteinerTreeResult:
        """Solve one terminal set on the warm graph state.

        ``overrides`` are :class:`SolverConfig` fields replacing the
        session defaults for this call only.
        """
        config = replace(self.config, **overrides) if overrides else self.config
        return self.solver_for(config).solve(seeds)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release warm solver state; idempotent."""
        self._solvers.clear()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        if self._closed:
            raise RuntimeError("Session is closed")
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.graph!r}, engine={self.config.engine!r}, "
            f"{state}, warm_solvers={len(self._solvers)})"
        )
