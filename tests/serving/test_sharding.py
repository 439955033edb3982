"""Sharded-simulation equivalence tests.

``ServingSimulator.run(shards=N)`` factors the fleet into
router-independent components and simulates each separately; the merged
result must be **byte-identical** to the single-shard run (energy alone
may re-associate across components, so it is compared to 1e-12 relative
tolerance).  These tests pin that contract over the component planner,
both run surfaces (records and streamed), every batching policy, the
scalar fallback core, the process fan-out path, and the golden scenario
presets from :mod:`tests.serving.test_differential`.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.backends import ExecutionCache
from repro.errors import ServingError
from repro.serving.batching import (
    ContinuousBatching,
    FixedSizeBatching,
    NoBatching,
)
from repro.serving.chaos import ChaosTimeline, chip_failure
from repro.serving.fleet import (
    Fleet,
    FixedOwnersRouter,
    JoinShortestQueueRouter,
    RoundRobinRouter,
)
from repro.serving.scenarios import run_scenario
from repro.serving.sharding import plan_components
from repro.serving.simulator import ServingSimulator, columnar_chunks
from repro.serving.traffic import Request

WORKLOADS = ("lvrf", "mimonet", "nvsa", "prae")

GOLDEN_DIR = Path(__file__).parent / "golden"


class _Model:
    """Deterministic per-workload service model (1 W chip => E == t)."""

    scheduler = "fake"
    cached_reports = 0

    BASE = {"lvrf": 0.8, "mimonet": 0.2, "nvsa": 1.0, "prae": 0.5}

    def service_seconds(self, workload, batch_size):
        return self.BASE[workload] * (0.05 + 0.05 * batch_size)

    def energy_joules(self, workload, batch_size):
        return 2.0 * self.service_seconds(workload, batch_size)


def _stream(n=240, span_s=6.0):
    """A deterministic, moderately bursty request stream."""
    entries = sorted(
        ((i * 37 % 997) / 997.0 * span_s, WORKLOADS[i % len(WORKLOADS)])
        for i in range(n)
    )
    return [
        Request(request_id=index, workload=workload, arrival_s=arrival)
        for index, (arrival, workload) in enumerate(entries)
    ]


def _policies():
    return (
        NoBatching(),
        FixedSizeBatching(batch_size=3, max_wait_s=0.1),
        ContinuousBatching(max_batch_size=4, slo_s=0.5),
    )


def _simulator(
    num_chips=8, router="round_robin", policy=None, vectorize=True, chaos=None
):
    return ServingSimulator(
        service_model=_Model(),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy or ContinuousBatching(max_batch_size=4),
        vectorize=vectorize,
        chaos=chaos,
    )


def _assert_equivalent(base, sharded):
    assert sharded.records == base.records
    assert sharded.chip_busy_s == base.chip_busy_s
    assert sharded.chip_requests == base.chip_requests
    assert sharded.num_batches == base.num_batches
    assert sharded.horizon_s == base.horizon_s
    assert sharded.first_arrival_s == base.first_arrival_s
    assert math.isclose(
        sharded.energy_joules, base.energy_joules, rel_tol=1e-12
    )


class TestPlanComponents:
    def test_round_robin_splits_per_chip(self):
        plan = plan_components(RoundRobinRouter(), 4)
        assert plan.mode == "rr"
        assert plan.components == ((0,), (1,), (2,), (3,))
        assert plan.comp_of_workload is None

    def test_jsq_cannot_split(self):
        reason = plan_components(JoinShortestQueueRouter(), 4)
        assert isinstance(reason, str)
        assert "join-shortest-queue" in reason

    def test_single_chip_cannot_split(self):
        reason = plan_components(RoundRobinRouter(), 1)
        assert "single-chip" in reason

    def test_disjoint_owner_pools_split(self):
        router = FixedOwnersRouter({"a": (0, 1), "b": (2, 3)})
        plan = plan_components(router, 4)
        assert plan.mode == "owners"
        assert plan.components == ((0, 1), (2, 3))
        assert plan.comp_of_workload == {"a": 0, "b": 1}

    def test_overlapping_pools_union(self):
        router = FixedOwnersRouter({"a": (0, 1), "b": (1, 2), "c": (3,)})
        plan = plan_components(router, 4)
        assert plan.components == ((0, 1, 2), (3,))
        assert plan.comp_of_workload == {"a": 0, "b": 0, "c": 1}

    def test_fully_coupled_pools_fall_back(self):
        router = FixedOwnersRouter({"a": (0, 1), "b": (1, 2), "c": (2, 3)})
        reason = plan_components(router, 4)
        assert isinstance(reason, str)
        assert "couple every chip" in reason


class TestRunShardedEquivalence:
    @pytest.mark.parametrize("policy", _policies(), ids=lambda p: p.name)
    @pytest.mark.parametrize("shards", (2, 4, 8))
    def test_round_robin_all_policies(self, policy, shards):
        stream = _stream()
        base = _simulator(policy=policy).run(stream)
        sharded = _simulator(policy=policy).run(stream, shards=shards)
        _assert_equivalent(base, sharded)
        assert sharded.provenance["shards"] == shards
        assert sharded.provenance["shards_effective"] == 8

    def test_affinity_fleet_shards_by_ownership(self):
        stream = _stream()
        base = _simulator(num_chips=4, router="affinity").run(stream)
        sharded = _simulator(num_chips=4, router="affinity").run(
            stream, shards=4
        )
        _assert_equivalent(base, sharded)
        assert sharded.provenance["shards_effective"] >= 2
        assert "shard_fallback" not in sharded.provenance

    def test_jsq_falls_back_with_reason(self):
        stream = _stream(n=60)
        base = _simulator(router="jsq").run(stream)
        sharded = _simulator(router="jsq").run(stream, shards=4)
        _assert_equivalent(base, sharded)
        assert sharded.provenance["shards_effective"] == 1
        assert "join-shortest-queue" in sharded.provenance["shard_fallback"]

    def test_single_chip_falls_back(self):
        stream = _stream(n=40)
        sharded = _simulator(num_chips=1).run(stream, shards=4)
        assert "single-chip" in sharded.provenance["shard_fallback"]

    def test_scalar_core_sharded_matches_vectorized_single(self):
        stream = _stream()
        base = _simulator(vectorize=True).run(stream)
        sharded = _simulator(vectorize=False).run(stream, shards=4)
        _assert_equivalent(base, sharded)

    def test_unsorted_input_is_normalized(self):
        stream = _stream(n=80)
        base = _simulator().run(stream)
        sharded = _simulator().run(list(reversed(stream)), shards=4)
        _assert_equivalent(base, sharded)


class TestStreamSharded:
    def _chunks(self, stream, size=64):
        return columnar_chunks(stream, size)

    def test_streamed_merge_is_byte_identical(self):
        stream = _stream()
        sim = _simulator()
        base = sim.run_stream(self._chunks(stream), WORKLOADS)
        sharded = sim.run_stream(self._chunks(stream), WORKLOADS, shards=4)
        for chip in range(sim.fleet.num_chips):
            assert np.array_equal(
                sharded.chip_latency_s[chip], base.chip_latency_s[chip]
            )
        assert np.array_equal(
            np.sort(sharded.latency_values()), np.sort(base.latency_values())
        )
        assert np.array_equal(
            np.sort(sharded.queue_delay_values()),
            np.sort(base.queue_delay_values()),
        )
        base_by_workload = base.workload_latency_values()
        for name, latencies in sharded.workload_latency_values().items():
            assert np.array_equal(
                np.sort(latencies), np.sort(base_by_workload[name])
            )
        assert sharded.chip_busy_s == base.chip_busy_s
        assert sharded.chip_requests == base.chip_requests
        assert sharded.num_batches == base.num_batches
        assert sharded.horizon_s == base.horizon_s
        assert math.isclose(
            sharded.energy_joules, base.energy_joules, rel_tol=1e-12
        )

    def test_streamed_provenance_records_components(self):
        stream = _stream(n=60)
        sim = _simulator()
        sharded = sim.run_stream(
            self._chunks(stream), WORKLOADS, provenance={"origin": "test"},
            shards=2,
        )
        assert sharded.provenance["shards"] == 2
        assert sharded.provenance["origin"] == "test"
        assert sharded.provenance["shard_components"] == [
            [chip] for chip in range(8)
        ]

    def test_streamed_jsq_falls_back_with_reason(self):
        stream = _stream(n=60)
        sim = _simulator(router="jsq")
        base = sim.run_stream(self._chunks(stream), WORKLOADS)
        sharded = sim.run_stream(self._chunks(stream), WORKLOADS, shards=4)
        for chip in range(sim.fleet.num_chips):
            assert np.array_equal(
                sharded.chip_latency_s[chip], base.chip_latency_s[chip]
            )
        assert "join-shortest-queue" in sharded.provenance["shard_fallback"]


class TestProcessFanOut:
    def test_forced_two_workers_match_sequential(self):
        # ExecutionCache is the shippable spec; two processes rebuild it
        # and their merged result must equal the in-process run.
        stream = _stream(n=96, span_s=0.05)
        model = ExecutionCache()
        sim = ServingSimulator(
            service_model=model,
            fleet=Fleet(num_chips=4, router="round_robin"),
            batching_policy=ContinuousBatching(max_batch_size=4),
        )
        base = sim.run(stream)
        sharded = sim.run(stream, shards=4, shard_workers=2)
        _assert_equivalent(base, sharded)
        assert sharded.provenance["shard_workers"] == 2


class TestCachedReports:
    """``cached_reports`` counts what the fleet cached, wherever it ran."""

    STEADY = ["serve", "steady", "--chips", "4", "--router", "round_robin",
              "--duration-scale", "0.1", "--format", "json"]

    @staticmethod
    def _cached_reports(capsys, argv):
        from repro.cli import main

        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        return report["provenance"]["cached_reports"], report

    def test_pooled_shards_report_the_workers_caches(self, capsys, tmp_path):
        plain, plain_report = self._cached_reports(capsys, self.STEADY)
        pooled, pooled_report = self._cached_reports(
            capsys, [*self.STEADY, "--shards", "2"]
        )
        in_process, _ = self._cached_reports(
            capsys, [*self.STEADY, "--shards", "2", "--shard-workers", "1"]
        )
        from repro.cli import main

        trace = tmp_path / "steady.jsonl"
        assert main([
            "serve", "steady", "--duration-scale", "0.1", "--record",
            str(trace),
        ]) == 0
        capsys.readouterr()
        replay, _ = self._cached_reports(capsys, [
            "serve", "--trace", str(trace), "--chips", "4", "--router",
            "round_robin", "--shards", "2", "--telemetry",
            str(tmp_path / "series.jsonl"), "--format", "json",
        ])
        assert pooled_report["provenance"]["shard_workers"] == 2
        assert (plain, pooled, in_process, replay) == (4, 4, 4, 4)
        assert pooled_report["summary"] == plain_report["summary"]


def _serve(sim, surface, stream, **shard_args):
    """``sim.run`` or ``sim.run_stream`` over ``stream``."""
    if surface == "run":
        return sim.run(stream, **shard_args)
    return sim.run_stream(columnar_chunks(stream, 4), WORKLOADS, **shard_args)


#: shard arguments are checked before a chaos timeline forces the
#: single-shard fallback
_ARGUMENT_CHAOS = pytest.mark.parametrize(
    "chaos",
    (None, ChaosTimeline((chip_failure(0, 0.5, 0.5),))),
    ids=("no-chaos", "chaos"),
)
_SURFACES = pytest.mark.parametrize("surface", ("run", "run_stream"))


class TestShardArgumentErrors:
    @_SURFACES
    @_ARGUMENT_CHAOS
    @pytest.mark.parametrize("shards", (0, -3))
    def test_zero_shards_rejected(self, shards, chaos, surface):
        with pytest.raises(ServingError, match="shards must be >= 1"):
            _serve(_simulator(chaos=chaos), surface, _stream(n=8), shards=shards)

    @_SURFACES
    @_ARGUMENT_CHAOS
    def test_zero_workers_rejected(self, chaos, surface):
        with pytest.raises(ServingError, match="shard workers must be >= 1"):
            _serve(
                _simulator(chaos=chaos), surface, _stream(n=8),
                shards=2, shard_workers=0,
            )

    def test_duplicate_ids_rejected(self):
        stream = _stream(n=8)
        stream[3] = Request(
            request_id=stream[2].request_id,
            workload=stream[3].workload,
            arrival_s=stream[3].arrival_s,
        )
        with pytest.raises(ServingError, match="duplicate request ids"):
            _simulator().run(stream, shards=2)

    def test_unknown_streamed_workload_rejected(self):
        sim = _simulator(num_chips=2)
        chunks = [([0.0], ["nvsa"], [0]), ([0.1], ["mystery"], [1])]
        with pytest.raises(ServingError, match="mystery"):
            sim.run_stream(chunks, ("nvsa",), shards=2)


@pytest.mark.parametrize(
    "name", ("steady", "diurnal", "flash_crowd", "mixed_workload")
)
class TestGoldenSharded:
    """shards=4 must reproduce the frozen golden records of every preset."""

    def test_records_match_golden(self, name, tmp_path):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        _, result = run_scenario(
            name,
            seed=golden["seed"],
            load_scale=golden["load_scale"],
            duration_scale=golden["duration_scale"],
            shards=4,
        )
        produced = [
            [
                record.request_id,
                record.workload,
                record.chip,
                record.arrival_s,
                record.dispatch_s,
                record.finish_s,
                record.batch_size,
            ]
            for record in result.records
        ]
        assert produced == golden["records"]
        assert result.num_batches == golden["num_batches"]
        assert list(result.chip_busy_s) == golden["chip_busy_s"]
        assert list(result.chip_requests) == golden["chip_requests"]
        assert result.horizon_s == golden["horizon_s"]
        assert math.isclose(
            result.energy_joules, golden["energy_joules"], rel_tol=1e-12
        )
        assert result.provenance["shards"] == 4
