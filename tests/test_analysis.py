"""Tests for the ``repro-steiner check`` static-analysis pass.

Three layers:

* fixture tests — each known-bad file under ``tests/analysis_fixtures/``
  must produce *exactly* the expected ``(rule, line)`` pairs, so a rule
  that drifts (new false positive, lost true positive) fails loudly;
* engine tests — suppression comments, JSON round-trip, exit codes;
* self-application — the repository's own ``src/``, ``benchmarks/`` and
  ``tests/`` trees come out clean (tier 1: this is the gate CI enforces).

The fingerprint regression tests live here too: the exclusion set is
data shared by the runtime (:data:`repro.core.config.FINGERPRINT_EXCLUSIONS`),
the checker (REP201-REP203) and these tests, and must stay pinned.
"""

from __future__ import annotations

import dataclasses
import types
from pathlib import Path
from typing import ClassVar

import pytest

from repro.analysis import (
    DEFAULT_EXCLUDES,
    Report,
    check_source,
    run_check,
    rule_catalogue,
)
from repro.analysis.rules_contracts import check_registry_contracts
from repro.analysis.rules_fingerprint import check_fingerprint_coverage
from repro.core.config import FINGERPRINT_EXCLUSIONS, SolverConfig

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"

ALL_RULE_IDS = {
    "REP101",
    "REP102",
    "REP103",
    "REP201",
    "REP202",
    "REP203",
    "REP501",
    "REP502",
    "REP503",
}


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
        report = run_check([FIXTURES], repo_rules=False)
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
        # File rules only, over the (normally excluded) fixture tree.
        return run_check([FIXTURES], repo_rules=False, excludes=("__pycache__",))

    def test_json_round_trip(self):
        report = self._fixture_report()
        assert report.findings  # sanity: the fixtures fire
        clone = Report.from_json(report.to_json())
        assert clone.findings == report.findings
        assert clone.checked_files == report.checked_files
        assert clone.errors == report.errors
        assert clone.exit_code == report.exit_code
        assert clone.counts() == report.counts()

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
        report = run_check([bad], repo_rules=False)
        assert report.exit_code == 1
        assert any("SyntaxError" in e for e in report.errors)

    def test_rule_catalogue_is_complete(self):
        assert set(rule_catalogue()) == ALL_RULE_IDS


# --------------------------------------------------------------------- #
# repo rules: fingerprint audit
# --------------------------------------------------------------------- #
class TestFingerprintAudit:
    def test_clean_on_current_config(self):
        assert list(check_fingerprint_coverage()) == []

    def test_stale_exclusion_is_rep201(self, monkeypatch):
        monkeypatch.setitem(
            FINGERPRINT_EXCLUSIONS, "no_such_field", "stale entry"
        )
        rules = [f.rule for f in check_fingerprint_coverage()]
        assert rules == ["REP201"]

    def test_missing_justification_is_rep203(self, monkeypatch):
        monkeypatch.setitem(FINGERPRINT_EXCLUSIONS, "fault_plan", "   ")
        rules = [f.rule for f in check_fingerprint_coverage()]
        assert rules == ["REP203"]

    def test_uncovered_field_is_rep202(self, monkeypatch):
        # Simulate fingerprint_material() silently dropping a hashed
        # field (the cache-poisoning bug the rule exists to catch).
        victim = next(
            f.name
            for f in dataclasses.fields(SolverConfig)
            if f.name not in FINGERPRINT_EXCLUSIONS
        )
        original = SolverConfig.fingerprint_material

        def dropping(self):
            material = original(self)
            material.pop(victim)
            return material

        monkeypatch.setattr(SolverConfig, "fingerprint_material", dropping)
        findings = list(check_fingerprint_coverage())
        assert [f.rule for f in findings] == ["REP202"]
        assert victim in findings[0].message

    def test_excluded_yet_hashed_is_rep202(self, monkeypatch):
        original = SolverConfig.fingerprint_material

        def leaking(self):
            material = original(self)
            material["fault_plan"] = self.fault_plan
            return material

        monkeypatch.setattr(SolverConfig, "fingerprint_material", leaking)
        findings = list(check_fingerprint_coverage())
        assert [f.rule for f in findings] == ["REP202"]
        assert "fault_plan" in findings[0].message


# --------------------------------------------------------------------- #
# repo rules: registry contracts
# --------------------------------------------------------------------- #
class TestRegistryContracts:
    def test_clean_on_current_registries(self):
        assert list(check_registry_contracts()) == []

    def test_broken_engine_is_rep501(self, monkeypatch):
        from repro.runtime import engines as engines_mod

        def broken_factory(partition, machine=None, discipline=None, **kw):
            return types.SimpleNamespace()

        monkeypatch.setitem(engines_mod._REGISTRY, "_broken", broken_factory)
        findings = [
            f for f in check_registry_contracts() if f.rule == "REP501"
        ]
        assert len(findings) == 1
        assert "_broken" in findings[0].message
        assert "run_phase" in findings[0].message

    def test_broken_backend_is_rep502(self, monkeypatch):
        from repro.shortest_paths import backends as backends_mod

        def broken_backend(graph, seeds, **options):
            return types.SimpleNamespace(seeds=None)  # not the 4 arrays

        monkeypatch.setitem(
            backends_mod._REGISTRY, "_broken", broken_backend
        )
        findings = [
            f for f in check_registry_contracts() if f.rule == "REP502"
        ]
        assert len(findings) == 1
        assert "_broken" in findings[0].message


# --------------------------------------------------------------------- #
# fingerprint exclusions: the pinned regression (shared data)
# --------------------------------------------------------------------- #
class TestFingerprintExclusionRegression:
    PINNED: ClassVar[set[str]] = {"fault_plan"}

    def test_exclusion_set_is_exactly_pinned(self):
        # Growing this set must be a reviewed decision: a new exclusion
        # means "this field can never change results" — update the pin
        # here *and* the justification in FINGERPRINT_EXCLUSIONS.
        assert set(FINGERPRINT_EXCLUSIONS) == self.PINNED

    def test_every_exclusion_is_justified(self):
        for name, reason in FINGERPRINT_EXCLUSIONS.items():
            assert isinstance(reason, str) and reason.strip(), name

    def test_material_is_fields_minus_exclusions(self):
        field_names = {f.name for f in dataclasses.fields(SolverConfig)}
        material = set(SolverConfig().fingerprint_material())
        assert material == field_names - self.PINNED

    def test_fingerprint_ignores_excluded_fields(self):
        from repro.faults import FaultAction, FaultPlan

        base = SolverConfig(engine="bsp-batched")
        tweaked = dataclasses.replace(
            base, fault_plan=FaultPlan([FaultAction("corrupt_cache")])
        )
        assert base.fingerprint() == tweaked.fingerprint()

    def test_fingerprint_tracks_hashed_fields(self):
        base = SolverConfig()
        assert base.fingerprint() != SolverConfig(n_ranks=8).fingerprint()
        assert base.fingerprint() != SolverConfig(engine="bsp").fingerprint()
        assert (
            base.fingerprint()
            != SolverConfig(aggregate_remote_messages=True).fingerprint()
        )


# --------------------------------------------------------------------- #
# self-application (tier 1): the repository is clean under its own rules
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tree", ["src", "benchmarks", "tests"])
def test_repository_is_clean(tree):
    report = run_check([REPO / tree], repo_rules=(tree == "src"))
    assert report.errors == []
    assert report.unsuppressed == [], "\n" + report.render()
    assert report.exit_code == 0
