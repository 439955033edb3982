"""Tests for the ``repro`` command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _coerce_param, main
from repro.evaluation import registry


class TestList:
    def test_markdown_listing(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "| tab09 |" in out
        assert "experiments registered" in out
        count = int(out.rsplit("\n", 2)[-2].split()[0])
        assert count >= 20

    def test_json_listing_with_tag(self, capsys):
        assert main(["list", "--tag", "e2e", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["id"] for entry in payload} >= {"fig15", "fig16", "tab10"}
        assert all("e2e" in entry["tags"] for entry in payload)


class TestRun:
    def test_run_markdown_and_cache_hit(self, capsys, tmp_path):
        args = ["run", "tab04", "--param", "vector_dim=256",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "| accelerator |" in first.out
        assert "cache miss" in first.err
        assert main(args) == 0
        assert "cache hit" in capsys.readouterr().err

    def test_run_json_to_output_file(self, tmp_path, capsys):
        output = tmp_path / "tab04.json"
        assert main([
            "run", "tab04", "--param", "vector_dim=128", "--format", "json",
            "--no-cache", "--output", str(output),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(output.read_text())
        assert payload["experiment"] == "tab04"
        assert len(payload["rows"]) == 2

    def test_run_multiple_ids_json_is_one_document(self, tmp_path, capsys):
        output = tmp_path / "both.json"
        assert main([
            "run", "tab04", "fig11c", "--smoke", "--format", "json",
            "--no-cache", "--output", str(output),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(output.read_text())  # must parse as ONE value
        assert [entry["experiment"] for entry in payload] == ["tab04", "fig11c"]

    def test_run_multiple_ids_shared_param_applies_to_all(self, capsys):
        assert main([
            "run", "fig15", "fig16", "--param", "datasets=raven", "--no-cache",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(len(entry["rows"]) == 1 for entry in payload)
        assert all(
            entry["provenance"]["params"] == {"datasets": ["raven"]}
            for entry in payload
        )

    def test_run_multiple_ids_param_scopes_to_declaring_spec(self, capsys):
        # vector_dim exists on tab04 but not fig12 — the run must succeed and
        # apply the override only where the schema declares it.
        assert main([
            "run", "tab04", "fig12", "--smoke", "--param", "vector_dim=256",
            "--no-cache", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_id = {entry["experiment"]: entry for entry in payload}
        assert by_id["tab04"]["provenance"]["params"]["vector_dim"] == 256
        assert "vector_dim" not in by_id["fig12"]["provenance"]["params"]

    def test_run_param_unknown_to_all_specs_is_a_clean_error(self, capsys):
        assert main(["run", "tab04", "fig12", "--param", "bogus=1"]) == 2
        assert "no requested experiment" in capsys.readouterr().err

    def test_run_smoke_uses_spec_smoke_params(self, capsys):
        assert main(["run", "fig04a", "--smoke", "--no-cache"]) == 0
        out = capsys.readouterr().out
        # Smoke scale restricts fig04a to the single GPU device.
        assert "rtx2080ti" in out
        assert "jetson_tx2" not in out

    def test_unknown_id_is_a_clean_error(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_param_is_a_clean_error(self, capsys):
        assert main(["run", "tab04", "--param", "bogus=1"]) == 2
        assert "no requested experiment has a parameter" in capsys.readouterr().err

    def test_unparsable_param_value_is_a_clean_error(self, capsys):
        assert main(["run", "tab04", "--param", "vector_dim=abc"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_malformed_param_assignment_is_a_clean_error(self, capsys):
        assert main(["run", "tab04", "--param", "vector_dim"]) == 2
        assert "key=value" in capsys.readouterr().err


class TestReport:
    def test_report_smoke_subset(self, tmp_path, capsys, monkeypatch):
        subset = {
            experiment_id: registry.EXPERIMENTS[experiment_id]
            for experiment_id in ("tab04", "fig12")
        }
        monkeypatch.setattr(registry, "EXPERIMENTS", subset)
        output = tmp_path / "EXPERIMENTS.md"
        assert main([
            "report", "--smoke", "--no-cache", "--output", str(output),
        ]) == 0
        capsys.readouterr()
        document = output.read_text()
        assert document.startswith("# EXPERIMENTS")
        assert "Tab. IV" in document and "Fig. 12" in document


class TestCache:
    def test_cache_info_and_clear(self, capsys, tmp_path):
        main(["run", "tab04", "--param", "vector_dim=128",
              "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_cache_action_defaults_to_info(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_stats_flag_prints_per_experiment_breakdown(self, capsys, tmp_path):
        main(["run", "tab04", "--param", "vector_dim=128",
              "--cache-dir", str(tmp_path)])
        main(["run", "fig12", "--smoke", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "--stats", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert set(payload["experiments"]) == {"tab04", "fig12"}
        # The spelled-out action is equivalent to the flag.
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == payload


class TestServe:
    def test_list_enumerates_the_presets(self, capsys):
        assert main(["serve", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "diurnal", "flash_crowd", "mixed_workload"):
            assert name in out

    def test_scenario_run_prints_summary_and_breakdown(self, capsys):
        assert main(["serve", "steady", "--duration-scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Scenario 'steady'" in out
        assert "| p99_ms |" in out
        assert "| workload |" in out

    def test_scenario_run_json_output(self, capsys):
        assert main([
            "serve", "flash_crowd", "--duration-scale", "0.05",
            "--chips", "1", "--policy", "none", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "flash_crowd"
        assert payload["provenance"]["num_chips"] == 1
        assert payload["provenance"]["batching_policy"] == "none"
        assert payload["summary"]["requests"] > 0

    def test_missing_scenario_is_a_clean_error(self, capsys):
        assert main(["serve"]) == 2
        assert "needs a scenario name" in capsys.readouterr().err

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["serve", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--load-scale", "--duration-scale"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scale_is_a_clean_error(self, capsys, flag, value):
        # Must fail fast instead of generating an endless arrival stream.
        assert main(["serve", "steady", flag, value]) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_list_honours_json_format_and_output_file(self, capsys, tmp_path):
        output = tmp_path / "scenarios.json"
        assert main([
            "serve", "--list", "--format", "json", "--output", str(output),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(output.read_text())
        assert {entry["scenario"] for entry in payload} == {
            "steady", "diurnal", "flash_crowd", "mixed_workload", "ramp_surge",
            "mix_shift", "chip_outage", "straggler_storm", "session_surge",
        }

    def test_record_then_replay_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "steady.jsonl"
        assert main([
            "serve", "steady", "--record", str(trace),
            "--duration-scale", "0.05",
        ]) == 0
        assert "recorded" in capsys.readouterr().err
        assert trace.is_file()
        assert main([
            "serve", "--trace", str(trace), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_info"]["source"]["scenario"] == "steady"
        assert payload["summary"]["requests"] == (
            payload["trace_info"]["num_requests"]
        )
        assert payload["per_workload"]

    def test_trace_replay_honours_fleet_flags(self, capsys, tmp_path):
        trace = tmp_path / "mixed.jsonl"
        assert main([
            "serve", "mixed_workload", "--record", str(trace),
            "--duration-scale", "0.05",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--trace", str(trace), "--chips", "3",
            "--router", "affinity", "--policy", "none",
            "--slo-ms", "8", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["num_chips"] == 3
        assert payload["provenance"]["router"] == "affinity"
        assert payload["provenance"]["batching_policy"] == "none"
        assert payload["summary"]["slo_ms"] == 8.0

    def test_record_needs_a_scenario(self, capsys, tmp_path):
        assert main(["serve", "--record", str(tmp_path / "x.jsonl")]) == 2
        assert "needs a scenario" in capsys.readouterr().err

    def test_trace_rejects_scenario_scale_flags(self, capsys, tmp_path):
        trace = tmp_path / "steady.jsonl"
        assert main([
            "serve", "steady", "--record", str(trace),
            "--duration-scale", "0.05",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--trace", str(trace), "--load-scale", "2.0",
        ]) == 2
        assert "deterministic" in capsys.readouterr().err

    def test_slo_ms_is_trace_only(self, capsys):
        assert main([
            "serve", "steady", "--slo-ms", "8", "--duration-scale", "0.05",
        ]) == 2
        assert "--slo-ms" in capsys.readouterr().err

    def test_replaying_a_non_trace_file_is_a_clean_error(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not json\n")
        assert main(["serve", "--trace", str(bogus)]) == 2
        assert "not a request trace" in capsys.readouterr().err

    def test_smoke_runs_every_serving_spec(self, capsys, tmp_path):
        assert main(["serve", "--smoke", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for title_fragment in ("latency vs offered load", "batching policy",
                               "fleet scaling", "scenario SLO",
                               "heterogeneous CogSys"):
            assert title_fragment in out

    def test_heterogeneous_backend_override(self, capsys):
        assert main([
            "serve", "mixed_workload", "--duration-scale", "0.05",
            "--backend", "cogsys, cogsys", "--backend", " a100",
            "--router", "symbolic_affinity", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["num_chips"] == 3
        assert payload["provenance"]["backends"] == ["cogsys", "a100"]
        assert {row["backend"] for row in payload["per_backend"]} == {
            "cogsys", "a100",
        }

    def test_unknown_backend_is_a_clean_error(self, capsys):
        assert main(["serve", "steady", "--backend", "warp_drive"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_backend_flag_naming_nothing_is_a_clean_error(self, capsys):
        assert main(["serve", "steady", "--backend", " , "]) == 2
        assert "named no backends" in capsys.readouterr().err

    def test_backend_flag_rejected_with_smoke_and_list(self, capsys):
        assert main(["serve", "--smoke", "--backend", "a100"]) == 2
        assert "--backend only applies" in capsys.readouterr().err
        assert main(["serve", "--list", "--backend", "a100"]) == 2
        assert "--backend only applies" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            (["--list", "--seed", "5"], ["--seed"]),
            (["steady", "--list"], ["SCENARIO", "steady"]),
            (["--smoke", "--chips", "2", "--router", "jsq", "--load-scale", "2"],
             ["--chips", "--router", "--load-scale"]),
            (["steady", "--record", "{tmp}/t.jsonl", "--profile"], ["--profile"]),
            (["steady", "--no-cache"], ["--no-cache"]),
            (["--list", "--smoke"], ["--smoke"]),
            (["--list", "--no-cache"], ["--no-cache"]),
            (["--list", "--duration-scale", "3"], ["--duration-scale"]),
            (["--smoke", "--seed", "3", "--load-scale", "2"],
             ["--seed", "--load-scale"]),
            (["--trace", "{tmp}/t.jsonl", "--no-cache"], ["--no-cache"]),
            (["steady", "--record", "{tmp}/t.jsonl", "--no-cache"],
             ["--no-cache"]),
        ],
    )
    def test_flags_the_mode_does_not_read_are_rejected(
        self, capsys, tmp_path, argv, named
    ):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert main(["serve", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        for flag in named:
            assert flag in err
        assert not (tmp_path / "t.jsonl").exists()

    def test_smoke_json_parses_as_one_document(self, capsys, tmp_path):
        assert main([
            "serve", "--smoke", "--cache-dir", str(tmp_path), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Every spec tagged "serving", incl. the DSE capacity planner.
        assert [entry["experiment"] for entry in payload] == [
            "serve_load", "serve_batch", "serve_fleet", "serve_scenarios",
            "serve_hetero", "serve_trace", "serve_chaos", "serve_control",
            "dse_capacity",
        ]


class TestBackends:
    def test_markdown_listing_is_sorted_and_complete(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("cogsys", "cogsys_no_nspe", "a100", "tpu_like", "xavier_nx"):
            assert f"| {name} |" in out
        assert "backends registered" in out
        names = [line.split("|")[1].strip() for line in out.splitlines()
                 if line.startswith("| ") and "---" not in line][1:]
        assert names == sorted(names)

    def test_json_listing(self, capsys):
        assert main(["backends", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["cogsys"]["symbolic_friendly"] is True
        assert by_name["a100"]["family"] == "device"
        assert by_name["tpu_like"]["family"] == "ml_accelerator"

    def test_describe_single_backend(self, capsys):
        assert main(["backends", "cogsys", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "cogsys"
        assert payload["schedulers"] == ["adaptive", "sequential"]
        assert payload["description"]

    def test_describe_markdown_joins_list_fields(self, capsys):
        assert main(["backends", "cogsys"]) == 0
        out = capsys.readouterr().out
        assert "| schedulers | adaptive,sequential |" in out
        assert "[" not in out

    def test_unknown_backend_is_a_clean_error(self, capsys):
        assert main(["backends", "warp_drive"]) == 2
        assert "unknown backend" in capsys.readouterr().err


class TestParamCoercion:
    @pytest.mark.parametrize(
        ("raw", "label", "expected"),
        [
            ("3", "int", 3),
            ("0.5", "float", 0.5),
            ("xeon", "str", "xeon"),
            ("1,2,3", "ints", (1, 2, 3)),
            ("0.2,0.8,1.1", "floats", (0.2, 0.8, 1.1)),
            ("raven,pgm", "strs", ("raven", "pgm")),
            ("210:1024,1:2048", "int_pairs", ((210, 1024), (1, 2048))),
        ],
    )
    def test_coercions(self, raw, label, expected):
        assert _coerce_param(raw, label) == expected


def test_python_dash_m_entry_point():
    """``python -m repro`` resolves to the CLI (console-script equivalent)."""
    repo_root = Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin",
             "HOME": "/tmp"},
    )
    assert result.returncode == 0
    assert "experiments registered" in result.stdout
