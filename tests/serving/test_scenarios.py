"""Tests for the scenario presets and the acceptance-level guarantees."""

import time

import pytest

from repro.backends import ExecutionCache
from repro.errors import ServingError
from repro.evaluation.serving_experiments import latency_load_sweep
from repro.serving.scenarios import SCENARIOS, get_scenario, run_scenario


@pytest.fixture(scope="module")
def shared_model():
    """One memoized accelerator model shared by every scenario test."""
    return ExecutionCache("cogsys")


class TestPresets:
    def test_the_presets_exist(self):
        assert list(SCENARIOS) == [
            "steady", "diurnal", "flash_crowd", "mixed_workload", "ramp_surge",
            "mix_shift", "chip_outage", "straggler_storm", "session_surge",
        ]
        for scenario in SCENARIOS.values():
            assert scenario.description
            assert scenario.num_chips >= 1
            assert scenario.slo_s > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ServingError, match="unknown scenario"):
            get_scenario("bogus")

    def test_invalid_scales_rejected(self):
        with pytest.raises(ServingError):
            run_scenario("steady", load_scale=0.0)
        with pytest.raises(ServingError):
            run_scenario("steady", duration_scale=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ServingError, match="finite"):
                run_scenario("steady", load_scale=bad)
            with pytest.raises(ServingError, match="finite"):
                run_scenario("steady", duration_scale=bad)


class TestRunScenario:
    def test_scenario_runs_and_reports_provenance(self, shared_model):
        scenario, result = run_scenario(
            "steady", seed=3, duration_scale=0.05, service_model=shared_model
        )
        assert scenario.name == "steady"
        assert result.num_requests > 0
        assert result.provenance["scenario"] == "steady"
        assert result.provenance["seed"] == 3
        assert result.num_chips == scenario.num_chips

    def test_overrides_are_respected(self, shared_model):
        _, result = run_scenario(
            "steady",
            duration_scale=0.05,
            num_chips=1,
            router="round_robin",
            policy="none",
            service_model=shared_model,
        )
        assert result.num_chips == 1
        assert result.provenance["router"] == "round_robin"
        assert result.provenance["batching_policy"] == "none"

    def test_duration_scale_scales_traffic(self, shared_model):
        _, short = run_scenario(
            "steady", duration_scale=0.05, service_model=shared_model
        )
        _, longer = run_scenario(
            "steady", duration_scale=0.2, service_model=shared_model
        )
        assert longer.num_requests > 2 * short.num_requests

    def test_every_preset_executes(self, shared_model):
        for name in SCENARIOS:
            _, result = run_scenario(
                name, duration_scale=0.05, service_model=shared_model
            )
            assert result.num_requests > 0
            assert 0.0 < result.utilization <= 1.0


class TestAcceptance:
    def test_same_seed_and_scenario_reproduce_the_latency_trace(self, shared_model):
        """Acceptance: identical per-request latency traces for equal seeds."""
        _, first = run_scenario(
            "flash_crowd", seed=11, duration_scale=0.1, service_model=shared_model
        )
        _, second = run_scenario(
            "flash_crowd", seed=11, duration_scale=0.1, service_model=shared_model
        )
        assert first.latencies_s() == second.latencies_s()
        assert [r.chip for r in first.records] == [r.chip for r in second.records]
        _, other_seed = run_scenario(
            "flash_crowd", seed=12, duration_scale=0.1, service_model=shared_model
        )
        assert first.latencies_s() != other_seed.latencies_s()

    def test_full_load_sweep_finishes_within_budget(self):
        """Acceptance: 4 workloads x 5 load points in well under 60 s."""
        started = time.perf_counter()
        rows = latency_load_sweep(requests_per_point=100)
        elapsed = time.perf_counter() - started
        assert len(rows) == 4 * 5
        assert elapsed < 60.0
        # Memoization keeps the whole sweep to a handful of simulations, so
        # in practice the sweep lands one order of magnitude below the cap.
        workloads = {row["workload"] for row in rows}
        assert workloads == {"lvrf", "mimonet", "nvsa", "prae"}
