"""Repo-invariant static analysis: the ``repro-steiner check`` pass.

See :mod:`repro.analysis.engine` for the architecture and
``docs/analysis.md`` for the rule catalogue.  Importing this package
registers the built-in rule families:

* ``REP1xx`` — determinism lint (:mod:`~repro.analysis.rules_determinism`)
* ``REP2xx`` — fingerprint-coverage audit (:mod:`~repro.analysis.rules_fingerprint`)
* ``REP5xx`` — registry-contract conformance (:mod:`~repro.analysis.rules_contracts`)
"""

from repro.analysis import (  # importing registers the rules
    rules_contracts,
    rules_determinism,
    rules_fingerprint,
)
from repro.analysis.engine import (
    DEFAULT_EXCLUDES,
    Finding,
    ModuleContext,
    Report,
    check_source,
    file_rule,
    iter_python_files,
    repo_rule,
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
    "repo_rule",
    "rule_catalogue",
    "run_check",
]
