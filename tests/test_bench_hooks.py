"""The end-to-end benchmark's trace hooks still find their targets.

``benchmarks/e2e/tracing.py`` times layers from outside ``src/`` by
wrapping public names listed in ``tracing.HOOKS``.  A renamed or moved
target makes its hook report ``absent``, and the benchmark's per-layer
metrics built on it silently turn into ``null``.  These tests fail
instead, on every tier-1 run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from repro.api import Session
from repro.graph.generators import rmat_graph
from repro.graph.weights import assign_uniform_weights
from tests.conftest import component_seeds

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))
tracing = importlib.import_module("tracing")


def _originals() -> dict[str, tuple[object, str, object]]:
    """``span name -> (owner, attribute, original object)`` per hook."""
    out = {}
    for hook in tracing.HOOKS:
        owner = importlib.import_module(hook.module)
        *path, attr = hook.target.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[hook.span] = (owner, attr, getattr(owner, attr))
    return out


def test_every_hook_installs_and_uninstall_restores_originals():
    before = _originals()
    installed = tracing.install(tracing.Recorder())
    try:
        assert installed.status == {hook.span: "ok" for hook in tracing.HOOKS}
    finally:
        installed.uninstall()
    for span, (owner, attr, original) in before.items():
        assert getattr(owner, attr) is original, span


def test_traced_solve_records_engine_and_cost_model_spans():
    graph = assign_uniform_weights(rmat_graph(9, 6, seed=1), (1, 100), seed=2)
    seeds = component_seeds(graph, 8, seed=3)
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    try:
        with Session(
            graph, engine="bsp-batched", voronoi_backend="delta-numpy"
        ) as session:
            result = session.solve(seeds)
    finally:
        installed.uninstall()
    assert result.n_edges >= seeds.size - 1
    names = {span.name for span in recorder.spans}
    assert "runtime.tree_edge_phase" in names
    assert "distance_graph.cost_model" in names


#: spans every warm fast-path solve must record; a per-layer metric whose
#: span stops running after the first solve prints ``null`` in the e2e run
WARM_SOLVE_SPANS = (
    "seeds.validate",
    "shortest_paths.sweep",
    "distance_graph.build",
    "csr.edge_array",
    "distance_graph.cost_model",
    "partition.arc_arrays",
    "distance_graph.seed_indices",
    "mst.prim",
    "runtime.tree_edge_phase",
)


def test_warm_solve_records_every_per_layer_span():
    graph = assign_uniform_weights(rmat_graph(9, 6, seed=1), (1, 100), seed=2)
    first, second = component_seeds(graph, 8, seed=3), component_seeds(graph, 8, seed=4)
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    try:
        with Session(
            graph, engine="bsp-batched", voronoi_backend="delta-numpy"
        ) as session:
            session.solve(first)
            warm_from = len(recorder.spans)
            session.solve(second)
    finally:
        installed.uninstall()
    names = {span.name for span in recorder.spans[warm_from:]}
    missing = [span for span in WARM_SOLVE_SPANS if span not in names]
    assert not missing, f"warm solve skipped {missing}"
