"""The bench gates cannot pass silently.

The ``--min-*`` floors of the bench scripts are only applied by the
``--check`` gate.  Without it a floor could never fail, so a CI step
that forgot ``--check`` would pass whatever the numbers.  Each script
must reject that combination with argparse's exit code 2, naming the
flag, before it times anything.  With ``--check``, every graph's
verdict, a skip included, lands in the written record.

Nor can a bench script sit unrun: every top-level ``benchmarks/*.py``
file is named in the CI workflow (outside a comment) or imported by a
script that is.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
CI = ROOT / ".github" / "workflows" / "ci.yml"


def _bench_main(script: str):
    spec = importlib.util.spec_from_file_location(
        f"_floor_probe_{Path(script).stem}", BENCHMARKS / script
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize(
    "script,flag",
    [
        ("bench_engines.py", "--min-speedup"),
        ("bench_serve.py", "--min-batch-ratio"),
        ("bench_serve.py", "--min-cache-speedup"),
    ],
)
def test_floor_without_check_is_usage_error(script, flag, capsys, tmp_path):
    main = _bench_main(script)
    with pytest.raises(SystemExit) as excinfo:
        main(["--quick", "--out", str(tmp_path / "out.json"), flag, "99"])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_check_records_each_verdict(tmp_path):
    baseline = json.loads((BENCHMARKS / "BENCH_backends_baseline.json").read_text())
    del baseline["results"]["grid-5k-unit"]
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    out = tmp_path / "out.json"
    main = _bench_main("bench_backends.py")
    main(["--quick", "--repeats", "1", "--out", str(out), "--check", str(baseline_path)])
    verdicts = json.loads(out.read_text())["gate"]["verdicts"]
    assert verdicts.pop("grid-5k-unit") == {
        "verdict": "skipped",
        "reason": "no baseline entry",
    }
    assert set(verdicts) == {"rmat-6k-w100", "er-6k-w100"}
    for verdict in verdicts.values():
        assert verdict["verdict"] in ("ok", "regressed")
        assert verdict["floor"] == round(verdict["baseline"] * 0.8, 3)


def _ci_text() -> str:
    """The CI workflow without its comment lines."""
    lines = CI.read_text().splitlines()
    return "\n".join(line for line in lines if not line.lstrip().startswith("#"))


def _imported_modules(script: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
    return names


def test_every_bench_script_runs_in_ci():
    scripts = {path.stem for path in BENCHMARKS.glob("*.py")}
    named = set(re.findall(r"benchmarks/(\w+)\.py", _ci_text()))
    reached = named & scripts
    for name in sorted(named & scripts):
        reached |= _imported_modules(BENCHMARKS / f"{name}.py") & scripts
    assert scripts - reached == set(), "bench scripts no CI step runs"
