"""Seed-vertex selection strategies (paper §V "Seed Vertex Selection" and
§V-E "Studying Seed Selection Alternatives").

All strategies draw from the **largest connected component** so every seed
is guaranteed to be Steiner-tree-connectable, exactly as the paper
requires.  Four strategies are provided:

* **BFS-level** (the paper's default): compute BFS levels from a random
  component vertex and sample seeds across levels proportionally to level
  population ("often a higher percentage of vertices are selected from a
  level with higher vertex frequency") — this avoids the degenerate case
  where most seeds are directly connected.
* **Uniform random**: uniform over the component.
* **Eccentric**: k-BFS heuristic (Iwabuchi et al.) — each subsequent seed
  maximises the cumulative BFS distance from all previous seeds, pushing
  seeds far apart.
* **Proximate**: the same machinery with ``argmin``, pulling seeds close
  together (the paper notes this yields much smaller trees).
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from repro.errors import SeedError
from repro.graph.connectivity import bfs_levels, largest_component_vertices
from repro.graph.csr import CSRGraph

__all__ = [
    "SeedStrategy",
    "select_seeds",
    "bfs_level_seeds",
    "uniform_random_seeds",
    "eccentric_seeds",
    "proximate_seeds",
]


class SeedStrategy(str, enum.Enum):
    """Named strategies accepted by :func:`select_seeds`."""

    BFS_LEVEL = "bfs-level"
    UNIFORM_RANDOM = "uniform-random"
    ECCENTRIC = "eccentric"
    PROXIMATE = "proximate"


def select_seeds(
    graph: CSRGraph,
    k: int,
    strategy: SeedStrategy | str = SeedStrategy.BFS_LEVEL,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Select ``k`` seed vertices with the given strategy.

    Returns a sorted ``int64[k]`` array of distinct vertex ids, all within
    the largest connected component.
    """
    strategy = SeedStrategy(strategy)
    if strategy is SeedStrategy.BFS_LEVEL:
        return bfs_level_seeds(graph, k, seed=seed)
    if strategy is SeedStrategy.UNIFORM_RANDOM:
        return uniform_random_seeds(graph, k, seed=seed)
    if strategy is SeedStrategy.ECCENTRIC:
        return eccentric_seeds(graph, k, seed=seed)
    return proximate_seeds(graph, k, seed=seed)


def _component(graph: CSRGraph, k: int) -> np.ndarray:
    comp = largest_component_vertices(graph)
    if comp.size < k:
        raise SeedError(
            f"largest component has {comp.size} vertices; cannot select {k} seeds"
        )
    if k < 1:
        raise SeedError("seed count must be >= 1")
    return comp


def uniform_random_seeds(graph: CSRGraph, k: int, *, seed: int = 0) -> np.ndarray:
    """``k`` vertices uniformly at random from the largest component."""
    comp = _component(graph, k)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(comp, size=k, replace=False)).astype(np.int64)


def bfs_level_seeds(graph: CSRGraph, k: int, *, seed: int = 0) -> np.ndarray:
    """The paper's default: stratified sampling across BFS levels.

    From a random component vertex, compute BFS levels, then allocate the
    ``k`` picks to levels proportionally to level size (larger levels get
    more seeds), sampling uniformly within each level.
    """
    comp = _component(graph, k)
    rng = np.random.default_rng(seed)
    root = int(comp[rng.integers(0, comp.size)])
    levels = bfs_levels(graph, root)
    comp_levels = levels[comp]
    max_level = int(comp_levels.max())
    # level populations (restricted to the component)
    pops = np.bincount(comp_levels, minlength=max_level + 1).astype(np.float64)
    quota = pops / pops.sum() * k
    counts = np.floor(quota).astype(np.int64)
    # distribute the remainder to the levels with the largest fractional
    # part (deterministic given the RNG state drives only the sampling)
    short = k - int(counts.sum())
    if short > 0:
        frac_order = np.argsort(-(quota - counts), kind="stable")
        for lvl in frac_order[:short]:
            counts[lvl] += 1
    picked: list[int] = []
    for lvl in range(max_level + 1):
        want = int(counts[lvl])
        if want == 0:
            continue
        members = comp[comp_levels == lvl]
        want = min(want, members.size)
        picked.extend(rng.choice(members, size=want, replace=False).tolist())
    # top up if rounding starved some level (tiny levels)
    if len(picked) < k:
        pool = np.setdiff1d(comp, np.asarray(picked, dtype=np.int64))
        extra = rng.choice(pool, size=k - len(picked), replace=False)
        picked.extend(extra.tolist())
    return np.sort(np.asarray(picked[:k], dtype=np.int64))


def _kbfs_seeds(
    graph: CSRGraph,
    k: int,
    *,
    seed: int,
    maximize: bool,
) -> np.ndarray:
    """Shared k-BFS machinery for eccentric/proximate selection.

    Round ``j`` picks the vertex with the extreme (max or min) cumulative
    BFS level over all previous rounds, exactly the paper's
    ``u_{k-n+1} = argmax/argmin sum_j l_j(v_i)`` rule.
    """
    comp = _component(graph, k)
    rng = np.random.default_rng(seed)
    in_comp = np.zeros(graph.n_vertices, dtype=bool)
    in_comp[comp] = True

    first = int(comp[rng.integers(0, comp.size)])
    chosen = [first]
    cumulative = np.zeros(graph.n_vertices, dtype=np.int64)
    for _ in range(k - 1):
        lv = bfs_levels(graph, chosen[-1])
        # unreachable vertices cannot be in the component; clamp defensively
        lv = np.where(lv < 0, 0, lv)
        cumulative += lv
        score = np.where(in_comp, cumulative, -1 if maximize else np.iinfo(np.int64).max)
        score = score.copy()
        score[np.asarray(chosen, dtype=np.int64)] = (
            -1 if maximize else np.iinfo(np.int64).max
        )
        nxt = int(score.argmax() if maximize else score.argmin())
        chosen.append(nxt)
    return np.sort(np.asarray(chosen, dtype=np.int64))


def eccentric_seeds(graph: CSRGraph, k: int, *, seed: int = 0) -> np.ndarray:
    """Seeds far from each other (k-BFS argmax; paper §V-E "Eccentric")."""
    return _kbfs_seeds(graph, k, seed=seed, maximize=True)


def proximate_seeds(graph: CSRGraph, k: int, *, seed: int = 0) -> np.ndarray:
    """Seeds close to each other (k-BFS argmin; paper §V-E "Proximate")."""
    return _kbfs_seeds(graph, k, seed=seed, maximize=False)


def validate_seed_set(graph: CSRGraph, seeds: Sequence[int]) -> np.ndarray:
    """Normalise and validate an externally supplied seed set.

    Every solve and Voronoi sweep starts here, so this also refuses
    (:class:`~repro.errors.GraphError`) a graph whose distances could
    overflow int64 (:meth:`CSRGraph.check_distance_range`).
    """
    graph.check_distance_range()
    arr = np.asarray(sorted(int(s) for s in seeds), dtype=np.int64)
    if arr.size == 0:
        raise SeedError("seed set must be non-empty")
    if (arr[1:] == arr[:-1]).any():  # sorted: duplicates are adjacent
        raise SeedError("seed set contains duplicates")
    if arr[0] < 0 or arr[-1] >= graph.n_vertices:
        raise SeedError("seed vertex id out of range")
    return arr
