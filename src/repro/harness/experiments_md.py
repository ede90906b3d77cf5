"""Generate EXPERIMENTS.md: run every experiment and record
paper-vs-measured for each table and figure.

Usage::

    python -m repro.harness.experiments_md [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import time

from repro.harness.registry import EXPERIMENTS, run_experiment

#: what the paper reports per experiment, quoted for the side-by-side
PAPER_EXPECTATIONS: dict[str, str] = {
    "table1": (
        "APSP grows ~linearly with |S| (LVJ: 49.7s -> 5,813.3s from "
        "|S|=10 to 1000) while Voronoi cells stay nearly flat (30.0s -> "
        "104.5s).  Shape to match: APSP growth factor >> VC growth factor."
    ),
    "table3": (
        "eight real graphs from CiteSeer (3.3K vertices, 328KB) to "
        "WDC12 (3.5B vertices, 257B arcs, 5.7TB).  Stand-ins preserve the "
        "ordering, skew and weight ranges at ~10^3 scale reduction."
    ),
    "fig3": (
        "strong scaling on FRS/UKW/CLW/WDC, 1.3x-2.9x per node-count "
        "doubling, up to 90% efficiency on the largest graphs; Voronoi-cell "
        "computation dominates and is the scalability bottleneck."
    ),
    "fig4": (
        "across |S|=10..10K the async phases stay flat or speed up "
        "(large |S| converges faster); MST/collective phases only become "
        "visible at |S|=10K where G'1 has ~50M edges."
    ),
    "table4": (
        "|ES| ranges from 66 (CTS, |S|=10) to 85,586 (WDC, |S|=10K) "
        "— always orders of magnitude below the graph size; N/A where the "
        "graph is smaller than the seed request."
    ),
    "fig5": (
        "priority queue beats FIFO 3.5x (FRS) to 13.1x (LVJ) "
        "end-to-end, almost entirely in the Voronoi Cell phase."
    ),
    "fig6": (
        "the runtime gap is explained by message traffic — 4.9x "
        "(FRS) to 22.1x (LVJ) fewer messages under the priority queue."
    ),
    "fig7": (
        "weight range [1,100] converges fastest; FIFO std-dev across "
        "ranges is 13.5s, 14.7x the priority queue's 0.91s; priority is "
        "10.8x faster on average on LVJ."
    ),
    "table5": (
        "BFS-level / uniform-random / eccentric perform similarly; "
        "proximate produces much smaller trees (16.0K vs 426.9K total "
        "distance at |S|=100) — avoided in the evaluation."
    ),
    "fig8": (
        "LVJ runtime state grows 35.9x from |S|=1K to 10K (C(|S|,2) "
        "replicated buffers); for CLW/WDC the graph dominates (4.4x/1.7x "
        "growth); chunked collectives trade runtime for memory."
    ),
    "table6": (
        "SCIP-Jack needs minutes-to-an-hour; WWW is flat in |S|; "
        "Mehlhorn grows with |S|; the distributed solution is up to 27x "
        "faster than Mehlhorn and 5x faster than WWW on LVJ/PTN."
    ),
    "table7": (
        "D(GS)/Dmin between 1.0112 and 1.1684, average 1.0527 "
        "(5.3% error) — far inside the 2(1-1/l) bound."
    ),
    "fig9": (
        "renders MiCo trees for |S|=10/100/1000, seeds red, Steiner "
        "vertices blue.  We report tree composition and emit DOT."
    ),
    "ablation-async-vs-bsp": (
        "§IV (design choice, from prior work): asynchronous "
        "processing converges faster than BSP for distributed shortest "
        "paths.  Runs every registered runtime engine (async-heap, bsp, "
        "bsp-batched); the vectorised batched engine reproduces the "
        "per-message BSP messages exactly at a fraction of the wall time."
    ),
    "ablation-delegates": (
        "§IV (design choice): vertex-cut delegates are crucial for "
        "scale-free graphs with skewed degree distributions."
    ),
    "ablation-mst": (
        "§III (design choice): G'1 is small, so a sequential MST "
        "(~2s at |S|=10K) beats parallel MST, whose available parallelism "
        "collapses (Bader & Cong; Galois Lonestar)."
    ),
    "fig2": (
        "Fig. 2 illustrates the five artefacts of the algorithm: Voronoi "
        "cells with cross-cell edges, the distance graph G'1, its MST "
        "G'2, post-MST pruning, and the final tree.  We materialise each "
        "on a worked instance."
    ),
    "ablation-kernel": (
        "§III (design choice): Delta-stepping is work-efficient but "
        "bucket-synchronous ('does not naturally extend to distributed "
        "memory'); the paper bases the distributed kernel on "
        "Bellman-Ford and recovers efficiency with the priority queue."
    ),
    "ablation-chunked-collectives": (
        "§V-F: chunked collectives ('e.g., 500K or 1M items per chunk') "
        "bound the EN communication buffer at the expense of runtime."
    ),
    "ablation-aggregation": (
        "§IV (substrate property): HavoqGT batches visitor messages per "
        "destination rank, part of why an MPI implementation beats "
        "Hadoop/Spark-based alternatives."
    ),
}

HEADER = """# EXPERIMENTS — paper vs measured

Reproduction record for every table and figure in the evaluation of
*"Towards Distributed 2-Approximation Steiner Minimal Trees in
Billion-edge Graphs"* (Reza, Sanders, Pearce; IPDPS 2022).

**How to read this file.**  Each section quotes what the paper reports,
then shows the measured output of the corresponding harness experiment
on the scaled stand-in datasets (see DESIGN.md for the substitution
table; `|S|` mapping: paper 10/100/1K/10K -> scaled 10/30/100/300).
Absolute numbers are *not* comparable — the paper ran a 2.6-PFLOP
cluster on up-to-257B-arc graphs, this repo runs a discrete-event
simulation on ~10^5-arc stand-ins.  The **shape** — who wins, what
grows, where crossovers sit — is the reproduction target, and each
section's "shape check" note states it.

Regenerate with:

```
python -m repro.harness.experiments_md            # full sweep
python -m repro.harness.experiments_md --quick    # smoke version
```
"""


def mode_line(quick: bool) -> str:
    """The header line naming the sweep that produced the document."""
    if quick:
        return (
            "**Mode:** produced by the `--quick` sweep (the smoke version: "
            "fewer datasets and smaller seed counts than the full sweep).\n"
        )
    return "**Mode:** produced by the full sweep.\n"


def generate(quick: bool = False) -> str:
    """Run every registered experiment and render the full document."""
    parts = [HEADER, mode_line(quick)]
    for exp_id in EXPERIMENTS:
        t0 = time.perf_counter()
        report = run_experiment(exp_id, quick=quick)
        elapsed = time.perf_counter() - t0
        parts.append(f"\n## {exp_id}: {report.title}\n")
        expectation = PAPER_EXPECTATIONS.get(exp_id)
        if expectation:
            parts.append(f"**Paper**: {expectation}\n")
        parts.append("**Measured** (harness output):\n")
        for table in report.tables:
            parts.append("```\n" + table + "\n```\n")
        for note in report.notes:
            parts.append(f"*Shape check*: {note}\n")
        parts.append(f"*(experiment wall time: {elapsed:.1f}s)*\n")
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.harness.experiments_md``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    text = generate(quick=args.quick)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
