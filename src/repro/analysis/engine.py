"""The ``repro-steiner check`` rule engine.

A small, dependency-free static-analysis pass purpose-built for this
repository's invariants: bit-identical parity across backends and
engines only survives new code if that code is deterministic.  Runtime
tests catch a violation only on the path they happen to exercise; these
rules catch the *bug classes* at review time, on every path.

Architecture
------------
* **File rules** (:func:`file_rule`) receive a parsed
  :class:`ModuleContext` per checked file and yield :class:`Finding`s.
* Every finding carries a stable rule id (``REP0xx``); a finding whose
  line carries ``# repro: ignore[REPxxx]`` is recorded but suppressed
  (it never affects the exit code).  Suppressions should carry a
  justification comment — the rule catalogue (``docs/analysis.md``)
  shows the expected form.

Adding a rule
-------------
Write a generator taking a :class:`ModuleContext`, decorate it with
:func:`file_rule`, give its findings a fresh ``REPxxx`` id, add a
fixture under ``tests/analysis_fixtures/`` proving it fires, and
document it in ``docs/analysis.md``.  Importing the module registers
the rule; the built-in rule modules are imported by
:mod:`repro.analysis`.
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "DEFAULT_EXCLUDES",
    "Finding",
    "ModuleContext",
    "Report",
    "file_rule",
    "iter_python_files",
    "run_check",
    "rule_catalogue",
]

#: Path components that are never checked: the analysis fixtures are
#: deliberately rule-violating code, and caches are not source.
DEFAULT_EXCLUDES: tuple[str, ...] = (
    "analysis_fixtures",
    "__pycache__",
    ".git",
)

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        tag = "  [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }


class ModuleContext:
    """A parsed source file plus the lookups rules share.

    Attributes
    ----------
    path:
        The path as given on the command line (relative paths stay
        relative, so CI output is machine-independent).
    tree:
        The parsed ``ast`` module with parent links
        (:meth:`parent_of`).
    suppressions:
        ``{line: {rule ids ignored on that line}}`` from
        ``# repro: ignore[...]`` comments.
    """

    def __init__(self, path: str | Path, source: str) -> None:
        self.path = str(path)
        self.source = source
        self.tree = ast.parse(source, filename=self.path)
        self._parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self.suppressions = _collect_suppressions(source)

    @classmethod
    def from_file(cls, path: str | Path) -> "ModuleContext":
        with tokenize.open(path) as fh:  # honours PEP 263 encodings
            return cls(path, fh.read())

    # ------------------------------------------------------------------ #
    def parent_of(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``, applying suppressions."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return self.finding_at(rule, line, col, message)

    def finding_at(
        self, rule: str, line: int, col: int, message: str
    ) -> Finding:
        suppressed = rule in self.suppressions.get(line, set())
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            col=col,
            message=message,
            suppressed=suppressed,
        )


def _collect_suppressions(source: str) -> dict[int, set[str]]:
    """Map ``line -> {rule ids}`` from ``# repro: ignore[...]`` comments.

    Tokenizing (rather than regexing raw lines) keeps directives inside
    string literals inert, so documentation that *mentions* the syntax
    never suppresses anything.
    """
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            rules = {r for r in (p.strip() for p in m.group(1).split(",")) if r}
            out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - unparseable file
        pass
    return out


# --------------------------------------------------------------------- #
# rule registry
# --------------------------------------------------------------------- #
FileRule = Callable[[ModuleContext], Iterable[Finding]]

_FILE_RULES: list[FileRule] = []
#: ``{rule id: one-line description}`` registered alongside the rules.
_CATALOGUE: dict[str, str] = {}


def file_rule(
    *ids_and_help: tuple[str, str],
) -> Callable[[FileRule], FileRule]:
    """Register a per-file rule; ``ids_and_help`` documents each
    ``REPxxx`` id the rule can emit."""

    def deco(fn: FileRule) -> FileRule:
        _FILE_RULES.append(fn)
        _CATALOGUE.update(dict(ids_and_help))
        return fn

    return deco


def rule_catalogue() -> dict[str, str]:
    """``{rule id: description}`` for every registered rule, sorted."""
    return dict(sorted(_CATALOGUE.items()))


# --------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------- #
def iter_python_files(
    paths: Sequence[str | Path],
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths``, sorted, excluding any
    whose path contains an excluded component."""
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in candidates:
            if any(part in excludes for part in f.parts):
                continue
            if f in seen:
                continue
            seen.add(f)
            yield f


@dataclass
class Report:
    """The outcome of one ``repro-steiner check`` invocation."""

    findings: list[Finding] = field(default_factory=list)
    checked_files: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if (self.unsuppressed or self.errors) else 0

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.unsuppressed:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "checked_files": self.checked_files,
                "counts": self.counts(),
                "findings": [f.to_dict() for f in self.findings],
                "errors": list(self.errors),
            },
            indent=2,
            sort_keys=True,
        )

    def render(self, *, show_suppressed: bool = False) -> str:
        lines = [
            f.render()
            for f in self.findings
            if show_suppressed or not f.suppressed
        ]
        lines.extend(f"error: {e}" for e in self.errors)
        n_sup = sum(1 for f in self.findings if f.suppressed)
        summary = (
            f"checked {self.checked_files} file(s): "
            f"{len(self.unsuppressed)} finding(s), {n_sup} suppressed"
        )
        if self.counts():
            summary += " (" + ", ".join(
                f"{rule}: {n}" for rule, n in self.counts().items()
            ) + ")"
        lines.append(summary)
        return "\n".join(lines)


def check_source(path: str | Path, source: str) -> list[Finding]:
    """Run every file rule over one in-memory module (the test hook)."""
    ctx = ModuleContext(path, source)
    findings: list[Finding] = []
    for rule in _FILE_RULES:
        findings.extend(rule(ctx))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def run_check(
    paths: Sequence[str | Path],
    *,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> Report:
    """Run every file rule over the ``.py`` files under ``paths``.

    Unreadable or syntactically invalid files are reported in
    ``Report.errors`` (non-zero exit) rather than raised — the checker
    must never crash on the code it judges.
    """
    report = Report()
    for f in iter_python_files(paths, excludes):
        try:
            ctx = ModuleContext.from_file(f)
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append(f"{f}: {type(exc).__name__}: {exc}")
            continue
        report.checked_files += 1
        for rule in _FILE_RULES:
            report.findings.extend(rule(ctx))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
