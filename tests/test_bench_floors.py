"""A benchmark floor given without ``--check`` is a usage error.

The ``--min-*`` floors of the bench scripts are only applied by the
``--check`` gate.  Without it a floor could never fail, so a CI step
that forgot ``--check`` would pass whatever the numbers.  Each script
must reject that combination with argparse's exit code 2, naming the
flag, before it times anything.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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
