"""Tests for the parallel suite runner, the coupled benchmark suite and
the depth-bucket JSQ index.

The equality tests pin the suite runner's contract: results come back in
input order and are byte-identical whether the cases ran sequentially or
through the process pool — except ``provenance["cached_reports"]``,
which counts the worker's service-table memo warmth and legitimately
depends on which cases that worker ran first (documented in
:mod:`repro.serving.suite`).
"""

import json

import pytest

from repro.cli import main
from repro.errors import ServingError
from repro.serving import simulator as simulator_module
from repro.serving.benchmark import (
    COUPLED_SUITE,
    CoupledThroughputCase,
    measure_coupled_case,
)
from repro.serving.simulator import _DepthIndex
from repro.serving.suite import SuiteCase, SuiteResult, map_cases, run_suite


class TestRunSuite:
    def test_results_in_input_order_and_pool_identical(self):
        cases = [
            SuiteCase("steady", duration_scale=0.2),
            SuiteCase("flash_crowd", duration_scale=0.2),
            SuiteCase("steady", seed=7, duration_scale=0.2, label="reseeded"),
        ]
        sequential = run_suite(cases, jobs=1)
        pooled = run_suite(cases, jobs=2)
        assert [res.case for res in sequential] == cases
        for seq, par in zip(sequential, pooled):
            assert isinstance(seq, SuiteResult)
            assert seq.case == par.case
            assert seq.scenario == par.scenario
            assert seq.num_requests == par.num_requests
            assert seq.summary == par.summary
            assert seq.per_workload == par.per_workload
            assert seq.per_backend == par.per_backend
            prov_seq = dict(seq.provenance)
            prov_par = dict(par.provenance)
            prov_seq.pop("cached_reports")
            prov_par.pop("cached_reports")
            assert prov_seq == prov_par

    def test_jsq_cases_record_the_coupled_engine(self):
        [result] = run_suite([SuiteCase("steady", duration_scale=0.2)])
        assert result.provenance["coupled_engine"] == "water_fill"
        assert result.slo_s == pytest.approx(5e-3)

    def test_case_overrides_flow_through(self):
        [result] = run_suite(
            [SuiteCase("steady", duration_scale=0.2, num_chips=3,
                       router="round_robin", policy="none")]
        )
        assert result.provenance["num_chips"] == 3
        assert result.provenance["router"] == "round_robin"
        assert result.provenance["batching_policy"] == "none"
        assert "coupled_engine" not in result.provenance

    def test_label_defaults_to_scenario(self):
        assert SuiteCase("steady").name == "steady"
        assert SuiteCase("steady", label="warm").name == "warm"

    def test_empty_suite(self):
        assert run_suite([]) == []

    def test_rejects_non_cases_and_bad_jobs(self):
        with pytest.raises(ServingError, match="SuiteCase"):
            run_suite(["steady"])
        with pytest.raises(ServingError, match="jobs"):
            run_suite([SuiteCase("steady")], jobs=0)

    def test_unknown_scenario_raises_in_worker(self):
        with pytest.raises(ServingError, match="unknown scenario"):
            run_suite([SuiteCase("nope", duration_scale=0.2)])


def _double(value):
    return value * 2


class TestMapCases:
    def test_sequential_and_pooled_agree(self):
        items = list(range(5))
        assert map_cases(_double, items, jobs=1) == [0, 2, 4, 6, 8]
        assert map_cases(_double, items, jobs=3) == [0, 2, 4, 6, 8]

    def test_jobs_clamped_to_item_count(self):
        assert map_cases(_double, [21], jobs=64) == [42]


class TestServeJobsCli:
    def test_suite_json_payload(self, capsys):
        assert main([
            "serve", "steady,flash_crowd", "--jobs", "2",
            "--duration-scale", "0.2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["scenario"] for entry in payload] == [
            "steady", "flash_crowd",
        ]
        for entry in payload:
            assert entry["provenance"]["coupled_engine"] == "water_fill"
            assert entry["summary"]["requests"] > 0

    def test_single_scenario_with_jobs_uses_the_suite_path(self, capsys):
        assert main([
            "serve", "flash_crowd", "--jobs", "2",
            "--duration-scale", "0.2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["scenario"] == "flash_crowd"

    @pytest.mark.parametrize("argv", [
        ["serve", "steady", "--jobs", "0"],
        ["serve", "steady", "--jobs", "2", "--shards", "2"],
        ["serve", "steady", "--jobs", "2", "--profile"],
        ["serve", "steady,flash_crowd", "--telemetry", "t.jsonl"],
        ["serve", "--smoke", "--jobs", "2"],
    ])
    def test_stray_combinations_rejected(self, argv, capsys):
        assert main(argv) == 2


class TestCoupledBenchmark:
    def test_suite_regimes_are_deeply_saturated_jsq(self):
        assert len(COUPLED_SUITE) >= 3
        for case in COUPLED_SUITE:
            assert case.load_scale >= 64.0
            assert case.num_chips >= 2

    def test_measure_coupled_case_smoke(self, monkeypatch):
        # This short, shallow-batch stream's saturated spans reach the water
        # fill only below the shipped FILL_MIN_RUN.
        monkeypatch.setattr(simulator_module, "FILL_MIN_RUN", 48)
        case = CoupledThroughputCase(
            label="smoke", scenario="steady", load_scale=8.0,
            duration_scale=0.1, num_chips=2, max_batch_size=32,
        )
        row = measure_coupled_case(case, repeats=1)
        assert row["label"] == "smoke"
        assert row["router"] == "jsq"
        assert row["num_chips"] == 2
        assert row["requests"] > 0
        assert row["requests_per_s"] > 0
        # Deepish saturation: most requests ride the water-fill spans.
        assert row["water_fill_requests"] > row["requests"] // 2


class _FakeChip:
    __slots__ = ("chip_id", "pending")

    def __init__(self, chip_id, pending):
        self.chip_id = chip_id
        self.pending = pending


class TestDepthIndex:
    """The bucket index must reproduce the linear min-scan's exact order."""

    @staticmethod
    def _reference_take(chips):
        best = min(chips, key=lambda chip: (chip.pending, chip.chip_id))
        best.pending += 1
        return best.chip_id

    def test_take_matches_linear_min_scan(self):
        depths = [3, 1, 4, 1, 5, 9, 2, 6]
        chips = [_FakeChip(i, d) for i, d in enumerate(depths)]
        mirror = [_FakeChip(i, d) for i, d in enumerate(depths)]
        index = _DepthIndex(chips)
        for _ in range(50):
            taken = index.take()
            taken.pending += 1
            assert taken.chip_id == self._reference_take(mirror)

    def test_move_refiles_after_completion(self):
        chips = [_FakeChip(0, 5), _FakeChip(1, 5), _FakeChip(2, 5)]
        index = _DepthIndex(chips)
        # Chip 2 drains below the others: it must win the next take.
        chips[2].pending = 1
        index.move(2, 5, 1)
        assert index.take().chip_id == 2
        # Ties resolve to the lower chip id, as the scalar scan does.
        chips[2].pending += 1
        chips[0].pending = 1
        index.move(0, 5, 1)
        chips[1].pending = 1
        index.move(1, 5, 1)
        assert index.take().chip_id == 0

    def test_rebuild_resets_to_current_depths(self):
        chips = [_FakeChip(0, 2), _FakeChip(1, 0)]
        index = _DepthIndex(chips)
        index.take()
        chips[0].pending = 0
        chips[1].pending = 7
        index.rebuild()
        assert index.take().chip_id == 0
