"""Registry mapping experiment ids to their ``run`` callables.

Keys are the ids used by the CLI (``repro-steiner run <id>``) and
EXPERIMENTS.md.  Importing is lazy so ``repro.harness`` stays cheap to
import.
"""

from __future__ import annotations

import importlib
from typing import Callable

from repro.harness.experiments._shared import ExperimentReport

__all__ = ["EXPERIMENTS", "get_runner", "run_experiment"]

#: experiment id -> module path (each module exposes run(quick=False))
EXPERIMENTS: dict[str, str] = {
    "table1": "repro.harness.experiments.table1_apsp_vs_voronoi",
    "table3": "repro.harness.experiments.table3_datasets",
    "fig2": "repro.harness.experiments.fig2_walkthrough",
    "fig3": "repro.harness.experiments.fig3_strong_scaling",
    "fig4": "repro.harness.experiments.fig4_seed_count",
    "table4": "repro.harness.experiments.table4_tree_edges",
    "fig5": "repro.harness.experiments.fig5_fifo_vs_priority",
    "fig6": "repro.harness.experiments.fig6_message_counts",
    "fig7": "repro.harness.experiments.fig7_weight_distribution",
    "table5": "repro.harness.experiments.table5_seed_selection",
    "fig8": "repro.harness.experiments.fig8_memory",
    "table6": "repro.harness.experiments.table6_related_work",
    "table7": "repro.harness.experiments.table7_quality",
    "fig9": "repro.harness.experiments.fig9_mico_trees",
    "ablation-async-vs-bsp": "repro.harness.experiments.ablation_async_vs_bsp",
    "ablation-delegates": "repro.harness.experiments.ablation_delegates",
    "ablation-mst": "repro.harness.experiments.ablation_mst",
    "ablation-kernel": "repro.harness.experiments.ablation_kernel",
    "ablation-chunked-collectives": (
        "repro.harness.experiments.ablation_chunked_collectives"
    ),
    "ablation-aggregation": "repro.harness.experiments.ablation_aggregation",
}


def get_runner(exp_id: str) -> Callable[..., ExperimentReport]:
    """Resolve an experiment id to its ``run`` function."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    module = importlib.import_module(EXPERIMENTS[exp_id])
    return module.run


def run_experiment(
    exp_id: str, *, quick: bool = False, **kwargs
) -> ExperimentReport:
    """Run one experiment and return its report.

    Extra keyword arguments (e.g. ``engine=`` for the runs that thread
    the runtime-engine choice through) are forwarded only when the
    experiment's ``run`` accepts them, so sweep commands can pass a
    global option without every experiment opting in.
    """
    import inspect

    runner = get_runner(exp_id)
    accepted = inspect.signature(runner).parameters
    kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    return runner(quick=quick, **kwargs)
