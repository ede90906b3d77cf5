"""Make the checkout's ``src/`` tree importable, and nothing else.

The benchmark measures the code of the checkout it sits in.  It refuses
to run against another copy of ``repro`` (an installed package, a stale
``PYTHONPATH`` entry) and exits non-zero, printing no result, when the
checkout has no ``src/repro``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: pinned before NumPy loads, in this process and in every child
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment for the benchmark's child processes."""
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def prepare() -> None:
    """Pin BLAS threads and import ``repro`` from this checkout."""
    os.environ.update({var: "1" for var in _THREAD_VARS})
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"e2e benchmark: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        sys.exit(f"e2e benchmark: imported repro from {repro.__file__}, "
                 f"not from {package}")
