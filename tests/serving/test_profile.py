"""Tests for per-phase profiling and the serve CLI's new flags."""

import json

import pytest

from repro.cli import main
from repro.errors import ServingError
from repro.serving.profile import profile_scenario

PHASES = (
    "traffic generation",
    "policy plan",
    "route",
    "service lookup",
    "event core (other)",
    "metrics finalize",
)


class TestProfileScenario:
    def test_breakdown_covers_every_phase(self):
        payload = profile_scenario("steady", load_scale=0.2, duration_scale=0.2)
        assert tuple(row["phase"] for row in payload["phases"]) == PHASES
        by_phase = {row["phase"]: row for row in payload["phases"]}
        # The instrumented phases were actually consulted per event.
        assert by_phase["policy plan"]["calls"] > 0
        assert by_phase["route"]["calls"] == payload["num_requests"]
        assert by_phase["service lookup"]["calls"] > 0
        assert all(row["seconds"] >= 0 for row in payload["phases"])
        shares = sum(row["share_pct"] for row in payload["phases"])
        assert shares == pytest.approx(100.0, abs=1.0)
        assert payload["uninstrumented_run_s"] > 0
        assert payload["scenario"] == "steady"

    def test_overrides_flow_through(self):
        payload = profile_scenario(
            "steady",
            load_scale=0.2,
            duration_scale=0.2,
            num_chips=3,
            router="round_robin",
            policy="none",
        )
        assert payload["num_chips"] == 3
        assert payload["router"] == "round_robin"
        assert payload["policy"] == "none"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ServingError, match="unknown scenario"):
            profile_scenario("nope")

    def test_bad_scales_rejected(self):
        with pytest.raises(ServingError, match="must be positive"):
            profile_scenario("steady", load_scale=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ServingError, match="finite"):
                profile_scenario("steady", load_scale=bad)
            with pytest.raises(ServingError, match="finite"):
                profile_scenario("steady", duration_scale=bad)

    def test_sharded_profile_aggregates_phase_timings(self):
        payload = profile_scenario(
            "steady",
            load_scale=0.2,
            duration_scale=0.2,
            num_chips=4,
            router="round_robin",
            shards=4,
        )
        assert payload["shards"] == 4
        assert payload["shards_effective"] == 4
        assert "shard_fallback" not in payload
        by_phase = {row["phase"]: row for row in payload["phases"]}
        # Policy and model timings aggregate across all four shard engines;
        # routing is inlined per component, so its phase stays empty.
        assert by_phase["policy plan"]["calls"] > 0
        assert by_phase["service lookup"]["calls"] > 0
        assert by_phase["route"]["calls"] == 0

    def test_sharded_profile_reports_fallback(self):
        # jsq couples every chip, so the sharded engine cannot factor it.
        payload = profile_scenario(
            "steady", load_scale=0.2, duration_scale=0.2, shards=2
        )
        assert payload["shards"] == 2
        assert payload["shards_effective"] == 1
        assert "couples every chip" in payload["shard_fallback"]


class TestServeCLIFlags:
    def test_serve_profile_json(self, capsys):
        assert main([
            "serve", "steady", "--profile", "--load-scale", "0.2",
            "--duration-scale", "0.2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert tuple(row["phase"] for row in payload["phases"]) == PHASES

    def test_serve_profile_markdown(self, capsys):
        assert main([
            "serve", "steady", "--profile", "--load-scale", "0.2",
            "--duration-scale", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "## Profile — scenario 'steady'" in out
        assert "event core (other)" in out
        assert "fast-path speedup (x)" in out

    def test_serve_profile_shards_json(self, capsys):
        assert main([
            "serve", "steady", "--profile", "--chips", "4",
            "--router", "round_robin", "--shards", "2",
            "--load-scale", "0.2", "--duration-scale", "0.2",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 2
        assert payload["shards_effective"] == 4
        assert tuple(row["phase"] for row in payload["phases"]) == PHASES

    def test_serve_shards_records_provenance(self, capsys):
        assert main([
            "serve", "steady", "--chips", "4", "--router", "round_robin",
            "--shards", "2", "--load-scale", "0.2", "--duration-scale", "0.2",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["shards"] == 2
        assert payload["provenance"]["shards_effective"] == 4

    @pytest.mark.parametrize(
        "argv",
        (
            ["serve", "--list", "--shards", "2"],
            ["serve", "--smoke", "--profile"],
            ["serve", "steady", "--shard-workers", "2"],
            ["serve", "steady", "--record", "x.jsonl", "--shards", "2"],
            ["serve", "steady", "--profile", "--backend", "cogsys,a100"],
        ),
        ids=(
            "list-shards", "smoke-profile",
            "workers-without-shards", "record-shards", "profile-hetero",
        ),
    )
    def test_stray_flag_combinations_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
