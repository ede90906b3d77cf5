"""Shared benchmark fixtures.

Benchmarks run the same workloads as the experiment harness; dataset
construction is memoised by :func:`repro.harness.datasets.load_dataset`,
so setup cost is paid once per session (the paper likewise excludes
graph loading from its timings).

Paper-relevant metrics that are *not* wall-clock (simulated parallel
time, message counts, memory bytes, approximation ratios) are attached
to each benchmark's ``extra_info`` so the ``--benchmark-only`` report
doubles as the reproduction record.
"""

from __future__ import annotations

import pytest

from repro.harness.datasets import load_dataset
from repro.seeds.selection import select_seeds


@pytest.fixture(scope="session")
def seeds_cache():
    """Memoised BFS-level seed sets keyed by (dataset, k)."""
    cache: dict[tuple[str, int], object] = {}

    def get(dataset: str, k: int):
        key = (dataset, k)
        if key not in cache:
            cache[key] = select_seeds(load_dataset(dataset), k, "bfs-level", seed=1)
        return cache[key]

    return get
