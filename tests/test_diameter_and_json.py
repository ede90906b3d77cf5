"""Tests for the JSON export of experiment reports.

The ``diameter`` in the file name is historical; the name stays so the
test ids stay stable.
"""

from __future__ import annotations

import json

import numpy as np


class TestJsonExport:
    def test_report_round_trips(self):
        from repro.harness.registry import run_experiment

        rep = run_experiment("fig2", quick=True)
        parsed = json.loads(rep.to_json())
        assert parsed["exp_id"] == "fig2"
        assert parsed["data"]["total_distance"] > 0

    def test_numpy_values_coerced(self):
        from repro.harness.experiments._shared import ExperimentReport

        rep = ExperimentReport(
            "x",
            "t",
            data={
                "i": np.int64(5),
                "f": np.float64(1.5),
                "arr": np.asarray([1, 2]),
                "nested": {"k": (np.int64(1), np.int64(2))},
            },
        )
        parsed = json.loads(rep.to_json())
        assert parsed["data"] == {
            "i": 5,
            "f": 1.5,
            "arr": [1, 2],
            "nested": {"k": [1, 2]},
        }

    def test_cli_json_flag(self, capsys):
        from repro.harness.cli import main

        assert main(["run", "fig2", "--quick", "--json"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["exp_id"] == "fig2"
