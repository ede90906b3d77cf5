"""Fig. 5 — FIFO vs priority message queues: runtime.

Paper: LVJ (1 node), FRS and UKW (32 nodes), ``|S| = 100``; the priority
queue wins 3.5x (FRS) to 13.1x (LVJ), concentrated in the Voronoi-cell
phase.  Fig. 6 (next module) plots the matching message counts.

Reproduction: identical runs under both disciplines; output trees are
bit-identical (the discipline affects performance, never the result —
an invariant the paper relies on and our tests pin down).
"""

from __future__ import annotations

import numpy as np

from repro.core.result import PHASE_NAMES
from repro.harness.datasets import SEED_COUNTS
from repro.harness.experiments._shared import ExperimentReport, phase_times, solve
from repro.harness.reporting import fmt_time, render_table

EXP_ID = "fig5"
TITLE = "FIFO vs priority queue: runtime by phase"

_CONFIGS = {"LVJ": 16, "FRS": 16, "UKW": 16}
_PAPER_K = 100


def run_pair(
    dataset: str,
    k: int,
    n_ranks: int,
    engine: str = "async-heap",
):
    """One FIFO + one priority run (on the chosen runtime engine);
    returns both results."""
    fifo = solve(dataset, k, n_ranks=n_ranks, discipline="fifo", engine=engine)
    prio = solve(
        dataset, k, n_ranks=n_ranks, discipline="priority", engine=engine
    )
    if not np.array_equal(fifo.edges, prio.edges):  # pragma: no cover
        raise AssertionError("queue discipline changed the output tree")
    return fifo, prio


def run(quick: bool = False, engine: str = "async-heap") -> ExperimentReport:
    """Run this experiment; ``quick=True`` shrinks the sweep for
    test-suite use, ``engine`` selects the runtime engine from
    :mod:`repro.runtime.engines` (see the module docstring for the
    paper claim being reproduced)."""
    datasets = ["LVJ"] if quick else list(_CONFIGS)
    k = SEED_COUNTS[_PAPER_K]
    report = ExperimentReport(EXP_ID, TITLE)
    if engine != "async-heap":
        report.notes.append(f"runtime engine: {engine}")
    raw: dict[str, dict] = {}

    headers = ["dataset", "queue"] + list(PHASE_NAMES) + ["total", "speedup"]
    rows = []
    for ds in datasets:
        fifo, prio = run_pair(ds, k, _CONFIGS[ds], engine)
        speedup = fifo.sim_time() / prio.sim_time()
        for label, res in (("FIFO", fifo), ("Priority", prio)):
            pt = phase_times(res)
            rows.append(
                [ds, label]
                + [fmt_time(pt[p]) for p in PHASE_NAMES]
                + [
                    fmt_time(res.sim_time()),
                    f"{speedup:.1f}x" if label == "Priority" else "",
                ]
            )
        raw[ds] = {
            "fifo_total": fifo.sim_time(),
            "priority_total": prio.sim_time(),
            "speedup": speedup,
            "fifo_phases": phase_times(fifo),
            "priority_phases": phase_times(prio),
            "fifo_messages": {p.name: p.n_messages for p in fifo.phases},
            "priority_messages": {p.name: p.n_messages for p in prio.phases},
        }
    report.tables.append(render_table(headers, rows, title=f"|S|={_PAPER_K} (scaled {k})"))
    report.notes.append(
        "priority-queue speedup comes almost entirely from the Voronoi "
        "Cell phase (paper: 3.5x-13.1x end-to-end)"
    )
    report.data = raw
    return report
