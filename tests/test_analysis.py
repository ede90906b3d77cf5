"""Tests for the ``repro-steiner check`` static-analysis pass.

Three layers:

* fixture tests — each known-bad file under ``tests/analysis_fixtures/``
  must produce *exactly* the expected ``(rule, line)`` pairs, so a rule
  that drifts (new false positive, lost true positive) fails loudly;
* engine tests — suppression comments, the JSON report, exit codes;
* self-application — the repository's own ``src/``, ``benchmarks/`` and
  ``tests/`` trees come out clean (tier 1: this is the gate CI enforces).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_EXCLUDES,
    Report,
    check_source,
    run_check,
    rule_catalogue,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"

ALL_RULE_IDS = {"REP101", "REP102", "REP103"}


def _check_fixture(name: str, synthetic_path: str | None = None):
    source = (FIXTURES / name).read_text()
    return check_source(synthetic_path or str(FIXTURES / name), source)


def _pairs(findings):
    return [(f.rule, f.line) for f in findings]


# --------------------------------------------------------------------- #
# fixture files: exact rule ids and line numbers
# --------------------------------------------------------------------- #
class TestFixtures:
    def test_rng_fixture(self):
        findings = _check_fixture("bad_rng.py")
        assert _pairs(findings) == [
            ("REP101", 12),
            ("REP101", 13),
            ("REP101", 14),
            ("REP101", 15),
            ("REP101", 16),
            ("REP101", 17),
        ]

    def test_set_iteration_fixture(self):
        findings = _check_fixture("bad_set_iter.py")
        assert _pairs(findings) == [
            ("REP102", 8),
            ("REP102", 12),
            ("REP102", 19),
            ("REP102", 23),
        ]

    def test_clock_fixture_in_hot_path(self):
        # REP103 is path-scoped: the same source is flagged under a
        # kernel/engine path and silent elsewhere.
        hot = _check_fixture("bad_clock.py", "src/repro/runtime/_fixture.py")
        assert _pairs(hot) == [("REP103", 16), ("REP103", 17)]

        cold = _check_fixture("bad_clock.py")  # real (tests/...) path
        assert [f for f in cold if f.rule == "REP103"] == []

    def test_fixture_dir_is_never_scanned_by_default(self):
        # The deliberately-bad fixtures must not fail a normal run over
        # the tests tree.
        assert "analysis_fixtures" in DEFAULT_EXCLUDES
        report = run_check([FIXTURES])
        assert report.checked_files == 0


# --------------------------------------------------------------------- #
# suppression comments
# --------------------------------------------------------------------- #
class TestSuppression:
    def test_matching_rule_id_suppresses(self):
        findings = _check_fixture("suppressed.py")
        by_line = {f.line: f for f in findings}
        assert by_line[5].suppressed  # repro: ignore[REP101]
        assert not by_line[6].suppressed  # no directive

    def test_wrong_rule_id_does_not_suppress(self):
        findings = _check_fixture("suppressed.py")
        by_line = {f.line: f for f in findings}
        assert not by_line[7].suppressed  # ignore[REP999] != REP101

    def test_multi_rule_directive(self):
        findings = _check_fixture("suppressed.py")
        by_line = {f.line: f for f in findings}
        assert by_line[8].suppressed  # ignore[REP101, REP103]

    def test_suppressed_findings_do_not_affect_exit_code(self):
        report = Report(findings=_check_fixture("suppressed.py")[:1])
        assert report.findings[0].suppressed
        assert report.exit_code == 0
        assert report.unsuppressed == []


# --------------------------------------------------------------------- #
# report mechanics
# --------------------------------------------------------------------- #
class TestReport:
    def _fixture_report(self) -> Report:
        # Over the (normally excluded) fixture tree.
        return run_check([FIXTURES], excludes=("__pycache__",))

    def test_json_round_trip(self):
        report = self._fixture_report()
        assert report.findings  # sanity: the fixtures fire
        payload = json.loads(report.to_json())
        assert payload["findings"] == [f.to_dict() for f in report.findings]
        assert payload["checked_files"] == report.checked_files
        assert payload["errors"] == report.errors
        assert payload["counts"] == report.counts()

    def test_exit_code_and_counts(self):
        report = self._fixture_report()
        assert report.exit_code == 1
        counts = report.counts()
        assert counts["REP101"] >= 6  # bad_rng + unsuppressed suppressed.py
        assert counts["REP102"] == 4
        # suppressed findings are recorded but never counted
        assert sum(1 for f in report.findings if f.suppressed) == 2

    def test_render_mentions_each_unsuppressed_finding(self):
        report = self._fixture_report()
        text = report.render()
        for f in report.unsuppressed:
            assert f"{f.line}:{f.col}: {f.rule}" in text
        assert "[suppressed]" not in text
        assert "[suppressed]" in report.render(show_suppressed=True)

    def test_syntax_error_becomes_report_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = run_check([bad])
        assert report.exit_code == 1
        assert any("SyntaxError" in e for e in report.errors)

    def test_rule_catalogue_is_complete(self):
        assert set(rule_catalogue()) == ALL_RULE_IDS


# --------------------------------------------------------------------- #
# self-application (tier 1): the repository is clean under its own rules
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tree", ["src", "benchmarks", "tests"])
def test_repository_is_clean(tree):
    report = run_check([REPO / tree])
    assert report.errors == []
    assert report.unsuppressed == [], "\n" + report.render()
    assert report.exit_code == 0
