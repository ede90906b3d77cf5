"""Suites, seed picking, the speedup gate and the command line shared by
``bench_backends.py`` and ``bench_engines.py``.

Each script times every entry of one registry (sweep backends or
runtime engines) on the same generator graphs, writes one BENCH JSON
record and, with ``--check``, gates one entry's speedup over a
reference against a committed baseline.  The gate's verdict for each
graph — ``ok``, ``regressed`` or ``skipped`` with a reason — goes into
the record's ``gate`` object as well as onto stdout.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.graph.connectivity import largest_component_vertices
from repro.graph.generators import erdos_renyi_graph, grid_graph, rmat_graph
from repro.graph.weights import assign_uniform_weights

#: suite -> graph name -> (builder, seed count); the full suite centres
#: on the ~100K-edge generator graphs named in the original perf target
SUITES = {
    "full": {
        "rmat-100k-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(14, 7, seed=1), (1, 100), seed=2
            ),
            30,
        ),
        "er-100k-w100": (
            lambda: assign_uniform_weights(
                erdos_renyi_graph(30_000, 100_000, seed=3), (1, 100), seed=4
            ),
            30,
        ),
        "grid-100k-unit": (lambda: grid_graph(200, 250), 20),
    },
    "quick": {
        "rmat-6k-w100": (
            lambda: assign_uniform_weights(
                rmat_graph(10, 6, seed=1), (1, 100), seed=2
            ),
            10,
        ),
        "er-6k-w100": (
            lambda: assign_uniform_weights(
                erdos_renyi_graph(2_000, 6_000, seed=3), (1, 100), seed=4
            ),
            10,
        ),
        "grid-5k-unit": (lambda: grid_graph(50, 50), 8),
    },
}


def pick_seeds(graph, k: int, rng_seed: int = 1) -> np.ndarray:
    """``k`` distinct seeds from the largest component."""
    comp = largest_component_vertices(graph)
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(comp, size=min(k, comp.size), replace=False))


def parse_args(
    doc: str,
    default_out: str,
    argv: list[str] | None,
    *,
    min_speedup_help: str | None = None,
) -> argparse.Namespace:
    """The shared flags; ``--min-speedup`` only when its help is given."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny inputs (~6K edges, CI smoke job) instead of the "
        "full suite (~100K edges)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path(default_out),
        help=f"output JSON path (default: ./{default_out})",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best-of"
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON; exit 1 if the gated speedup regressed",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional speedup regression vs baseline (default 0.20)",
    )
    if min_speedup_help is not None:
        parser.add_argument(
            "--min-speedup", type=float, default=None, help=min_speedup_help
        )
    args = parser.parse_args(argv)
    if getattr(args, "min_speedup", None) is not None and args.check is None:
        parser.error("--min-speedup needs --check (without it no floor is applied)")
    return args


def gate_verdicts(
    results: dict,
    baseline_path: Path,
    *,
    kind: str,
    gated: str,
    tolerance: float,
    min_speedup: float | None = None,
) -> dict[str, dict]:
    """``{graph: verdict}`` of the speedup gate for ``results[g][kind][gated]``.

    The floor is ``(1 - tolerance)`` times the baseline speedup, raised
    to ``min_speedup`` when given.  A graph or entry absent from the
    baseline is ``skipped`` with the reason (lets the baseline trail a
    new suite by one change).
    """
    baseline = json.loads(baseline_path.read_text()).get("results", {})
    verdicts: dict[str, dict] = {}
    for name, record in results.items():
        if name not in baseline:
            verdict = {"verdict": "skipped", "reason": "no baseline entry"}
        elif gated not in baseline[name][kind]:
            verdict = {"verdict": "skipped", "reason": f"no {gated} baseline"}
        else:
            base = baseline[name][kind][gated]["speedup"]
            measured = record[kind][gated]["speedup"]
            floor = base * (1.0 - tolerance)
            if min_speedup is not None:
                floor = max(floor, min_speedup)
            verdict = {
                "verdict": "ok" if measured >= floor else "regressed",
                "speedup": measured,
                "baseline": base,
                "floor": round(floor, 3),
            }
        verdicts[name] = verdict
        if verdict["verdict"] == "skipped":
            print(f"[check] {name}: {verdict['reason']}, skipping")
        else:
            print(
                f"[check] {name}: {gated} speedup {verdict['speedup']:.2f}x "
                f"(baseline {verdict['baseline']:.2f}x, floor "
                f"{verdict['floor']:.2f}x) {verdict['verdict'].upper()}"
            )
    return verdicts


def run(
    args: argparse.Namespace,
    bench_graph: Callable[[str, Callable, int, int], dict],
    *,
    kind: str,
    gated: str,
    reference: str,
) -> int:
    """Time the suite, gate it when ``--check`` is given, write the record.

    ``kind`` is the per-graph key holding the timed entries
    (``"backends"`` or ``"engines"``); returns the exit code.
    """
    suite = "quick" if args.quick else "full"
    results = {
        name: bench_graph(name, builder, k, args.repeats)
        for name, (builder, k) in SUITES[suite].items()
    }
    entry = kind.removesuffix("s")
    payload: dict = {
        "meta": {
            "suite": suite,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            f"gated_{entry}": gated,
            f"reference_{entry}": reference,
        },
        "results": results,
    }
    code = 0
    if args.check is not None:
        verdicts = gate_verdicts(
            results,
            args.check,
            kind=kind,
            gated=gated,
            tolerance=args.tolerance,
            min_speedup=getattr(args, "min_speedup", None),
        )
        payload["gate"] = {"baseline": str(args.check), "verdicts": verdicts}
        regressed = [n for n, v in verdicts.items() if v["verdict"] == "regressed"]
        if regressed:
            print(f"[check] FAILED: {gated} regressed on {regressed}")
            code = 1
        else:
            print("[check] passed")
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return code
