"""One module per table/figure of the paper's evaluation (§V).

Every module exposes ``run(quick: bool = False) -> ExperimentReport``.
``quick=True`` shrinks sweeps for test-suite use; the default settings
are what ``repro-steiner run <id>`` and
``python -m repro.harness.experiments_md`` use.
"""

from repro.harness.experiments._shared import ExperimentReport

__all__ = ["ExperimentReport"]
