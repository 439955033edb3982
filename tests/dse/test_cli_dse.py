"""Tests for the ``repro dse`` CLI (incl. the <60 s smoke acceptance gate)."""

import json
import time

import pytest

from repro.cli import main
from repro.dse import DESIGN_SPACES


class TestDseList:
    def test_markdown_listing(self, capsys):
        assert main(["dse", "list"]) == 0
        out = capsys.readouterr().out
        assert "design spaces registered" in out
        for name in DESIGN_SPACES:
            assert f"| {name} |" in out

    def test_json_listing(self, capsys):
        assert main(["dse", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["space"] for entry in payload] == list(DESIGN_SPACES)
        assert all(entry["smoke_points"] <= entry["points"] for entry in payload)


class TestDseRun:
    def test_smoke_run_emits_frontier_table_under_60s(self, capsys, tmp_path):
        started = time.monotonic()
        assert main(["dse", "run", "--smoke", "--cache-dir", str(tmp_path)]) == 0
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out
        assert "### Pareto frontier" in out
        assert "| pareto |" in out and "| True |" in out
        assert elapsed < 60, f"dse smoke run took {elapsed:.1f}s (budget 60s)"

    def test_run_named_space_json(self, capsys, tmp_path):
        assert main([
            "dse", "run", "memory", "--smoke", "--format", "json",
            "--cache-dir", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "dse_sweep"
        assert payload["provenance"]["params"]["space"] == "memory"
        assert all("pareto" in row for row in payload["rows"])

    def test_run_rejects_unknown_space(self, capsys, tmp_path):
        assert main([
            "dse", "run", "warpspeed", "--smoke", "--cache-dir", str(tmp_path),
        ]) == 2
        assert "unknown design space" in capsys.readouterr().err

    def test_malformed_option_values_are_one_line_errors(self, capsys, tmp_path):
        # Unparsable list options must exit 2 with `error: ...`, no traceback.
        assert main([
            "dse", "run", "--smoke", "--batch-sizes", "abc",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "cannot parse --batch-sizes" in capsys.readouterr().err
        assert main([
            "dse", "plan", "--smoke", "--chips", "abc",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "cannot parse --chips" in capsys.readouterr().err

    def test_duplicate_workloads_rejected_cleanly(self, capsys, tmp_path):
        assert main([
            "dse", "run", "--smoke", "--workloads", "nvsa,nvsa",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "duplicate workloads" in capsys.readouterr().err


class TestStrayOptionRejection:
    """Options that cannot apply to an action must error, never be dropped."""

    def test_plan_rejects_positional_space(self, capsys):
        assert main(["dse", "plan", "pe_array", "--smoke"]) == 2
        err = capsys.readouterr().err
        assert "does not accept" in err and "pe_array" in err

    def test_run_rejects_plan_only_flags(self, capsys):
        assert main(["dse", "run", "--smoke", "--requests", "100"]) == 2
        assert "--requests" in capsys.readouterr().err
        assert main(["dse", "frontier", "--smoke", "--chips", "1,2"]) == 2
        assert "--chips" in capsys.readouterr().err

    def test_plan_rejects_sweep_only_flags(self, capsys):
        assert main(["dse", "plan", "--smoke", "--workloads", "nvsa"]) == 2
        assert "--workloads" in capsys.readouterr().err

    def test_list_rejects_everything_but_format(self, capsys):
        assert main(["dse", "list", "--smoke"]) == 2
        assert "--smoke" in capsys.readouterr().err
        assert main(["dse", "list", "--no-cache"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_run_workload_and_objective_overrides(self, capsys, tmp_path):
        assert main([
            "dse", "run", "frequency", "--smoke", "--workloads", "mimonet",
            "--objectives", "latency_ms:min", "--format", "json",
            "--cache-dir", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["workload"] for row in payload["rows"]} == {"mimonet"}
        # A single minimized objective keeps exactly one frontier design
        # (the fastest; ties impossible across distinct frequencies).
        assert sum(row["pareto"] for row in payload["rows"]) == 1


class TestDseFrontier:
    def test_frontier_rows_all_on_frontier(self, capsys, tmp_path):
        assert main([
            "dse", "frontier", "--smoke", "--format", "json",
            "--cache-dir", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "dse_frontier"
        assert payload["rows"], "smoke frontier must not be empty"
        assert all("objectives" in row for row in payload["rows"])
        assert all("pareto" not in row for row in payload["rows"])


class TestDsePlan:
    def test_plan_prints_recommendation(self, capsys, tmp_path):
        assert main(["dse", "plan", "--smoke", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "### Recommendation" in out
        assert "recommended:" in out

    def test_plan_overrides_and_json(self, capsys, tmp_path):
        assert main([
            "dse", "plan", "--smoke", "--chips", "1", "--requests", "80",
            "--format", "json", "--cache-dir", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "dse_capacity"
        assert {row["chips"] for row in payload["rows"]} == {1}
        assert payload["provenance"]["params"]["requests"] == 80

    def test_impossible_target_reports_no_plan(self, capsys, tmp_path):
        assert main([
            "dse", "plan", "--smoke", "--target-p99", "0.0001",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert "no configuration meets the target" in capsys.readouterr().out


@pytest.mark.parametrize("space", list(DESIGN_SPACES))
def test_every_space_smoke_runs_through_the_cli(space, capsys, tmp_path):
    """`repro dse run SPACE --smoke` works for every built-in space."""
    assert main([
        "dse", "run", space, "--smoke", "--format", "json",
        "--cache-dir", str(tmp_path),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"]
