"""Tests for the harness: datasets, reporting, registry, CLI."""

from __future__ import annotations

import pytest

from repro.harness.datasets import DATASETS, SEED_COUNTS, load_dataset
from repro.harness.registry import EXPERIMENTS, get_runner, run_experiment
from repro.harness.reporting import (
    fmt_bytes,
    fmt_si,
    fmt_time,
    render_stacked,
    render_table,
)


class TestDatasets:
    def test_all_eight_present(self):
        assert set(DATASETS) == {
            "WDC", "CLW", "UKW", "FRS", "LVJ", "PTN", "MCO", "CTS",
        }

    def test_relative_size_ordering(self):
        sizes = {name: load_dataset(name).n_arcs for name in DATASETS}
        # WDC is the biggest; CTS the smallest; the web graphs descend
        assert sizes["WDC"] == max(sizes.values())
        assert sizes["CTS"] == min(sizes.values())
        assert sizes["WDC"] > sizes["CLW"] > sizes["UKW"] > sizes["FRS"]
        assert sizes["FRS"] > sizes["LVJ"] > sizes["CTS"]

    def test_weight_ranges_match_table3(self):
        for name, spec in DATASETS.items():
            g = load_dataset(name)
            assert g.weights.min() >= spec.weight_range.low
            assert g.weights.max() <= spec.weight_range.high

    def test_caching(self):
        assert load_dataset("CTS") is load_dataset("CTS")
        assert load_dataset("cts") is load_dataset("CTS")  # case-insensitive

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("NOPE")

    def test_seed_count_mapping(self):
        assert SEED_COUNTS == {10: 10, 100: 30, 1000: 100, 10000: 300}

    def test_web_graphs_are_skewed(self):
        for name in ("WDC", "CLW", "UKW", "FRS"):
            g = load_dataset(name)
            assert g.max_degree > 5 * g.avg_degree, name


class TestReporting:
    def test_fmt_time_units(self):
        assert fmt_time(5e-7).endswith("us")
        assert fmt_time(0.005).endswith("ms")
        assert fmt_time(3.0) == "3.0s"
        assert fmt_time(600).endswith("m")
        assert fmt_time(7300).endswith("h")
        assert fmt_time(-3.0) == "-3.0s"

    def test_fmt_si(self):
        assert fmt_si(1_500) == "1.5K"
        assert fmt_si(2_000_000) == "2.0M"
        assert fmt_si(3_100_000_000) == "3.1B"
        assert fmt_si(12) == "12"

    def test_fmt_bytes(self):
        assert fmt_bytes(100) == "100B"
        assert fmt_bytes(10 << 10) == "10.0KB"
        assert fmt_bytes(3 << 20) == "3.0MB"
        assert fmt_bytes(3 << 30) == "3.0GB"
        assert fmt_bytes(7 << 40) == "7.0TB"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        # all data lines equal width
        assert len(lines[3]) == len(lines[4])

    def test_render_stacked(self):
        out = render_stacked("label", {"phase A": 0.75, "phase B": 0.25})
        assert "label" in out
        assert out.count("|") == 2

    def test_render_stacked_zero_total(self):
        out = render_stacked("empty", {"phase": 0.0})
        assert "phase" in out


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        # every evaluation table and figure has an entry
        for exp_id in (
            "table1", "fig3", "fig4", "table4", "fig5", "fig6", "fig7",
            "table5", "fig8", "table6", "table7", "fig9",
        ):
            assert exp_id in EXPERIMENTS

    def test_get_runner_resolves(self):
        fn = get_runner("table3")
        assert callable(fn)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_runner("fig99")
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCLI:
    def test_list(self, capsys):
        from repro.harness.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig9" in out

    def test_solve(self, capsys):
        from repro.harness.cli import main

        assert main(["solve", "--dataset", "CTS", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "SteinerTree" in out
        assert "Voronoi Cell" in out

    def test_run_quick_experiment(self, capsys):
        from repro.harness.cli import main

        assert main(["run", "table3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Dataset characteristics" in out

    def test_rejects_unknown_experiment(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])
