"""Fig. 6 — FIFO vs priority message queues: message counts.

Paper: the runtime gains of Fig. 5 are explained by message-traffic
reduction — 4.9x (FRS) to 22.1x (LVJ) fewer messages with the priority
queue, nearly all in the Voronoi-cell phase; the tree-edge phase is
negligible; collective phases are excluded (they are not visitor
traffic).

Reproduction: same runs as Fig. 5 (shared runner), message counters per
phase from the engine.
"""

from __future__ import annotations

from repro.harness.datasets import SEED_COUNTS
from repro.harness.experiments._shared import ExperimentReport
from repro.harness.experiments.fig5_fifo_vs_priority import _CONFIGS, _PAPER_K, run_pair
from repro.harness.reporting import fmt_si, render_table

EXP_ID = "fig6"
TITLE = "FIFO vs priority queue: message counts by phase"

#: phases whose traffic Fig. 6 plots (async visitor phases only; the
#: paper excludes collective phases)
_ASYNC_PHASES = ("Voronoi Cell", "Local Min Dist. Edge", "Steiner Tree Edge")


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

    headers = ["dataset", "queue"] + list(_ASYNC_PHASES) + ["total", "reduction"]
    rows = []
    for ds in datasets:
        fifo, prio = run_pair(ds, k, _CONFIGS[ds], engine)
        counts = {}
        for label, res in (("FIFO", fifo), ("Priority", prio)):
            per_phase = {p.name: p.n_messages for p in res.phases}
            counts[label] = {
                "per_phase": per_phase,
                "total": sum(per_phase.get(ph, 0) for ph in _ASYNC_PHASES),
            }
        reduction = counts["FIFO"]["total"] / max(counts["Priority"]["total"], 1)
        for label in ("FIFO", "Priority"):
            per_phase = counts[label]["per_phase"]
            rows.append(
                [ds, label]
                + [fmt_si(per_phase.get(ph, 0)) for ph in _ASYNC_PHASES]
                + [
                    fmt_si(counts[label]["total"]),
                    f"{reduction:.1f}x" if label == "Priority" else "",
                ]
            )
        raw[ds] = {
            "fifo": counts["FIFO"],
            "priority": counts["Priority"],
            "reduction": reduction,
        }
    report.tables.append(
        render_table(headers, rows, title=f"|S|={_PAPER_K} (scaled {k})")
    )
    report.notes.append(
        "message reduction concentrates in the Voronoi Cell phase; the "
        "Steiner Tree Edge phase is negligible (paper: 4.9x-22.1x)"
    )
    report.data = raw
    return report
