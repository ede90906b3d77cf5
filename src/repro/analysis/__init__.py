"""Repo-invariant static analysis: the ``repro-steiner check`` pass.

See :mod:`repro.analysis.engine` for the architecture and
``docs/analysis.md`` for the rule catalogue.  Importing this package
registers the built-in rules: the ``REP1xx`` determinism lint
(:mod:`~repro.analysis.rules_determinism`).
"""

from repro.analysis import rules_determinism  # importing registers the rules
from repro.analysis.engine import (
    DEFAULT_EXCLUDES,
    Finding,
    ModuleContext,
    Report,
    check_source,
    file_rule,
    iter_python_files,
    rule_catalogue,
    run_check,
)

__all__ = [
    "DEFAULT_EXCLUDES",
    "Finding",
    "ModuleContext",
    "Report",
    "check_source",
    "file_rule",
    "iter_python_files",
    "rule_catalogue",
    "run_check",
]
