"""Self-test of the end-to-end benchmark.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
Each test drives ``run.py --smoke`` (tiny graphs, about 10 s for all
workloads) in a child process, except the absent-hook test, which uses
the tracer directly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(*args: str) -> list[tuple[str, dict]]:
    """``(result_digest, final JSON)`` of every workload of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = [ln.split()[1] for ln in lines if ln.startswith("result_digest ")]
    finals = [json.loads(ln) for ln in lines if ln.startswith("{")]
    assert len(digests) == len(finals) == len(SPEC["workloads"])
    return list(zip(digests, finals))


@pytest.fixture(scope="module")
def smoke_runs() -> list[list[tuple[str, dict]]]:
    return [_smoke(), _smoke()]


def _names_units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def test_end_to_end_metrics_match_benchmark_json(smoke_runs):
    expected = _names_units(SPEC["end_to_end"])
    for _, final in smoke_runs[0]:
        assert final["correct"] is True
        assert final["failed"] == 0
        assert {n: m["unit"] for n, m in final["metrics"].items()} == expected
        assert all(m["value"] > 0 for m in final["metrics"].values())


def test_two_smoke_runs_give_identical_digests(smoke_runs):
    first, second = ([digest for digest, _ in run] for run in smoke_runs)
    assert first == second


def test_trace_run_reports_every_per_layer_metric():
    expected = _names_units(SPEC["per_layer"])
    for _, final in _smoke("--trace"):
        metrics = final["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_absent_hook_is_reported_absent():
    hooks = tracing.install(
        tracing.Recorder(),
        [tracing.Hook("repro.core.solver", "no_such_function", "mst.prim"),
         tracing.Hook("repro.no_such_module", "solve", "solver.solve")],
    )
    assert hooks.status == {"mst.prim": tracing.ABSENT,
                            "solver.solve": tracing.ABSENT}
    metrics = tracing.layer_metrics([], ["r0"], hooks.status)
    assert metrics["mst.prim_ms"] == tracing.ABSENT
    assert metrics["solver.self_ms"] == tracing.ABSENT
    assert metrics["seeds.validate_ms"] is None  # hooked fine, never ran


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "session-rmat-k30",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
