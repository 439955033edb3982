"""Invariant suite for chaos runs: resilience accounting must be provable.

Hypothesis generates adversarial request streams *and* seeded incident
timelines, and every pairing is served across all routers and batching
policies.  Four invariants must hold unconditionally under chaos:

* **Conservation** — ``arrived == completed + shed + lost``: every
  submitted request is accounted for exactly once, whatever the timeline
  kills.
* **Causality** — ``arrival <= dispatch <= finish`` for every completed
  request.
* **Down-interval exclusion** — no completed service span overlaps a
  chip's failure window (a batch may *finish* exactly at the failure
  instant; nothing dispatches before the recovery instant).
* **Scalar/vectorized identity** — ``vectorize=True`` and ``False``
  produce byte-identical records under the same timeline.

The zero-cost-when-off gate is pinned twice: an explicitly *empty*
timeline must be indistinguishable from no timeline at all on synthetic
streams, and must reproduce the pre-chaos golden records of every
recorded preset byte-for-byte.  Chunk-boundary tests mirror
``test_chunk_boundaries.py`` with incidents landing mid-chunk, and the
shard-fallback contract (timeline present ⇒ single-shard run, recorded
reason) is asserted on both ``run`` and ``run_stream``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import ExecutionCache
from repro.errors import ServingError
from repro.serving.batching import (
    ContinuousBatching,
    FixedSizeBatching,
    NoBatching,
)
from repro.serving.chaos import (
    OP_FAIL,
    OP_RECOVER,
    OP_SLOW_END,
    OP_SLOW_START,
    ChaosTimeline,
    Incident,
    chip_failure,
    power_cap,
    straggler,
)
from repro.serving.fleet import Fleet
from repro.serving.metrics import resilience_metrics, summarize_result
from repro.serving.scenarios import run_scenario
from repro.serving.simulator import (
    CHAOS_SHARD_FALLBACK,
    ServingSimulator,
    columnar_chunks,
)
from repro.serving.traffic import Request

WORKLOADS = ("lvrf", "mimonet", "nvsa", "prae")

ROUTERS = ("round_robin", "jsq", "affinity", "symbolic_affinity")

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_SCENARIOS = (
    "steady", "diurnal", "flash_crowd", "mixed_workload", "ramp_surge",
)


class _Report:
    def __init__(self, symbolic_fraction):
        self.symbolic_fraction = symbolic_fraction


class ChaosFakeModel:
    """Deterministic service model covering every router's needs."""

    scheduler = "fake"
    cached_reports = 0

    BASE = {"lvrf": 0.8, "mimonet": 0.2, "nvsa": 1.0, "prae": 0.5}
    SYMBOLIC = {"lvrf": 0.9, "mimonet": 0.1, "nvsa": 0.8, "prae": 0.3}

    def service_seconds(self, workload, batch_size):
        return self.BASE[workload] * (0.05 + 0.05 * batch_size)

    def energy_joules(self, workload, batch_size):
        return self.service_seconds(workload, batch_size)

    def report(self, workload, batch_size):
        return _Report(self.SYMBOLIC[workload])


def _policies():
    return (
        NoBatching(),
        FixedSizeBatching(batch_size=3, max_wait_s=0.05),
        ContinuousBatching(max_batch_size=4, slo_s=0.5),
    )


#: arrivals on a 0.01 s grid so incident instants collide with arrivals,
#: wake-ups and completions, not just fall between them
request_streams = st.lists(
    st.tuples(
        st.sampled_from(WORKLOADS),
        st.integers(min_value=0, max_value=80),
    ),
    min_size=1,
    max_size=40,
).map(
    lambda entries: [
        Request(request_id=index, workload=workload, arrival_s=tick / 100.0)
        for index, (workload, tick) in enumerate(
            sorted(entries, key=lambda e: e[1])
        )
    ]
)

#: seeded storms (always valid timelines) with an optional power cap
chaos_timelines = st.builds(
    lambda seed, f_rate, s_rate, cap: ChaosTimeline(
        ChaosTimeline.seeded(
            seed, num_chips=3, horizon_s=1.0,
            failure_rate=f_rate, straggler_rate=s_rate,
            mean_duration_s=0.15, multiplier=3.0,
        ).incidents
        + ((power_cap(0.3, 0.2, 2.0),) if cap else ())
    ),
    seed=st.integers(0, 50),
    f_rate=st.sampled_from((0.0, 2.0, 6.0)),
    s_rate=st.sampled_from((0.0, 3.0)),
    cap=st.booleans(),
)


def _simulator(policy, router="jsq", num_chips=3, chaos=None, vectorize=True):
    return ServingSimulator(
        service_model=ChaosFakeModel(),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy,
        vectorize=vectorize,
        chaos=chaos,
    )


def _record_rows(result):
    return [
        [r.request_id, r.workload, r.chip, r.arrival_s, r.dispatch_s,
         r.finish_s, r.batch_size]
        for r in result.records
    ]


def _down_windows(timeline, num_chips):
    """Per chip: the (sorted, disjoint) failure windows of the timeline."""
    windows = {chip: [] for chip in range(num_chips)}
    for incident in timeline.incidents:
        if incident.kind == "chip_failure":
            windows[incident.chip].append((incident.at_s, incident.end_s))
    return {chip: sorted(spans) for chip, spans in windows.items()}


class TestChaosInvariants:
    @settings(max_examples=20, deadline=None)
    @given(stream=request_streams, chaos=chaos_timelines)
    def test_conservation_causality_down_exclusion(
        self, stream, chaos, telemetry_contract
    ):
        for router in ROUTERS:
            for policy in _policies():
                sim = _simulator(policy, router=router, chaos=chaos)
                result = sim.run(list(stream), telemetry_window_s=0.05)
                telemetry_contract(result)
                # Conservation: every submission is completed, shed or lost.
                assert (
                    len(result.records)
                    + result.requests_lost
                    + result.requests_shed
                    == len(stream)
                ), (router, policy.name)
                assert result.requests_arrived == len(stream)
                down = _down_windows(chaos, sim.fleet.num_chips)
                for record in result.records:
                    # Causality survives incident interruptions.
                    assert record.arrival_s <= record.dispatch_s
                    assert record.dispatch_s <= record.finish_s
                    # No completed span overlaps its chip's down window; a
                    # batch finishing exactly at the failure instant is the
                    # allowed boundary case.
                    for start, end in down[record.chip]:
                        assert (
                            record.finish_s <= start
                            or record.dispatch_s >= end
                        ), (router, policy.name, record, start, end)

    @settings(max_examples=15, deadline=None)
    @given(stream=request_streams, chaos=chaos_timelines)
    # Two arrivals every 10 ms saturate all three chips between incidents,
    # so saturated spans drain through the vectorized core's span loop.
    @example(
        stream=[
            Request(index, WORKLOADS[index % 4], (index // 2) / 100.0)
            for index in range(40)
        ],
        chaos=ChaosTimeline((
            straggler(1, 0.05, 0.1, 3.0), chip_failure(2, 0.15, 0.1),
        )),
    )
    def test_scalar_and_vectorized_paths_agree_under_chaos(
        self, stream, chaos
    ):
        for router in ("jsq", "round_robin"):
            policy = ContinuousBatching(max_batch_size=4, slo_s=0.5)
            fast = _simulator(policy, router=router, chaos=chaos).run(
                list(stream)
            )
            slow = _simulator(
                policy, router=router, chaos=chaos, vectorize=False
            ).run(list(stream))
            assert _record_rows(fast) == _record_rows(slow)
            assert fast.requests_lost == slow.requests_lost
            assert fast.requests_shed == slow.requests_shed
            assert fast.incidents == slow.incidents
            assert fast.energy_joules == slow.energy_joules

    @settings(max_examples=15, deadline=None)
    @given(stream=request_streams)
    def test_empty_timeline_is_indistinguishable_from_none(self, stream):
        for router in ("jsq", "affinity"):
            policy = ContinuousBatching(max_batch_size=4, slo_s=0.5)
            bare = _simulator(policy, router=router)
            empty = _simulator(
                policy, router=router, chaos=ChaosTimeline(())
            )
            # The empty timeline normalizes away entirely...
            assert empty.chaos is None
            base = bare.run(list(stream))
            other = empty.run(list(stream))
            # ...so results and provenance are byte-identical.
            assert _record_rows(base) == _record_rows(other)
            assert base.requests_lost == other.requests_lost == 0
            assert base.incidents == other.incidents == ()
            assert "chaos" not in other.provenance
            assert base.provenance == other.provenance

    def test_lossy_outage_reports_losses_and_recovers(self):
        # A dense burst guarantees a busy chip and a standing queue when
        # the failure lands, so all three counters are exercised.
        stream = [
            Request(i, WORKLOADS[i % 4], 0.001 * i) for i in range(120)
        ]
        chaos = ChaosTimeline((chip_failure(0, 0.1, 0.3),))
        sim = _simulator(
            ContinuousBatching(max_batch_size=4), num_chips=2, chaos=chaos
        )
        result = sim.run(stream)
        assert result.requests_lost > 0
        assert result.requests_shed > 0
        assert result.requests_arrived == 120
        kinds = [event["kind"] for event in result.incidents]
        assert kinds.count("fail") == 1
        assert kinds.count("recover") == 1
        fail = next(e for e in result.incidents if e["kind"] == "fail")
        assert fail["requests_lost"] == result.requests_lost
        assert fail["requests_shed"] + sum(
            e.get("requests_shed", 0)
            for e in result.incidents if e["kind"] == "stranded"
        ) == result.requests_shed
        # Chip 0 serves again after the recovery instant.
        post = [r for r in result.records if r.chip == 0]
        assert any(r.dispatch_s >= 0.4 for r in post)

    def test_infinite_outage_strands_the_queue(self):
        stream = [Request(i, "nvsa", 0.001 * i) for i in range(40)]
        chaos = ChaosTimeline((chip_failure(0, 0.02, math.inf),))
        sim = _simulator(
            ContinuousBatching(max_batch_size=4), num_chips=1, chaos=chaos
        )
        result = sim.run(stream)
        # Nothing ever dispatches after the failure instant...
        assert all(r.finish_s <= 0.02 for r in result.records)
        # ...and conservation still holds: the stranded queue is shed.
        assert (
            len(result.records) + result.requests_lost + result.requests_shed
            == 40
        )
        assert result.requests_shed > 0
        assert any(e["kind"] == "stranded" for e in result.incidents)


class TestChaosChunkBoundaries:
    """Mid-chunk incidents must not depend on where chunks split."""

    STREAM = [
        Request(i, WORKLOADS[i % 4], (i * 37 % 499) / 4990.0)
        for i in range(60)
    ]
    CHAOS = ChaosTimeline((
        chip_failure(1, 0.03, 0.02),
        straggler(0, 0.01, 0.05, 3.0),
        power_cap(0.06, 0.03, 2.0),
    ))

    def _sim(self):
        return _simulator(
            ContinuousBatching(max_batch_size=4), num_chips=2,
            chaos=self.CHAOS,
        )

    @pytest.mark.parametrize("chunk_size", (1, 3, 7, 64))
    def test_chunk_size_invariance_under_chaos(self, chunk_size):
        stream = sorted(self.STREAM, key=lambda r: r.arrival_s)
        sim = self._sim()
        base = sim.run_stream(
            columnar_chunks(stream, len(stream)), WORKLOADS
        )
        chunked = sim.run_stream(
            columnar_chunks(stream, chunk_size), WORKLOADS
        )
        assert np.array_equal(
            chunked.latency_values(), base.latency_values()
        )
        assert chunked.chip_busy_s == base.chip_busy_s
        assert chunked.num_requests == base.num_requests
        assert chunked.requests_lost == base.requests_lost
        assert chunked.requests_shed == base.requests_shed
        assert chunked.incidents == base.incidents
        assert chunked.horizon_s == base.horizon_s

    def test_stream_matches_full_trace_run(self):
        stream = sorted(self.STREAM, key=lambda r: r.arrival_s)
        full = self._sim().run(stream)
        streamed = self._sim().run_stream(
            columnar_chunks(stream, 5), WORKLOADS
        )
        assert streamed.num_requests == full.num_requests
        assert streamed.requests_lost == full.requests_lost
        assert streamed.requests_shed == full.requests_shed
        assert streamed.incidents == full.incidents
        assert streamed.horizon_s == full.horizon_s
        assert np.array_equal(
            np.sort(streamed.latency_values()),
            np.sort(full.latency_values()),
        )

    def test_empty_chunks_are_skipped_under_chaos(self):
        stream = sorted(self.STREAM, key=lambda r: r.arrival_s)
        sim = self._sim()
        base = sim.run_stream(
            columnar_chunks(stream, len(stream)), WORKLOADS
        )
        chunks = [([], [], [])]
        for chunk in columnar_chunks(stream, 4):
            chunks.extend([chunk, ([], [], [])])
        padded = sim.run_stream(iter(chunks), WORKLOADS)
        assert np.array_equal(
            padded.latency_values(), base.latency_values()
        )
        assert padded.requests_lost == base.requests_lost
        assert padded.requests_shed == base.requests_shed


class TestShardFallback:
    """A chaos timeline forces single-shard execution, with the reason."""

    STREAM = [
        Request(i, WORKLOADS[i % 4], 0.002 * i) for i in range(50)
    ]
    CHAOS = ChaosTimeline((chip_failure(0, 0.02, 0.03),))

    def test_run_falls_back_and_records_why(self):
        sim = _simulator(
            ContinuousBatching(max_batch_size=4), router="round_robin",
            num_chips=2, chaos=self.CHAOS,
        )
        single = sim.run(list(self.STREAM))
        sharded = sim.run(list(self.STREAM), shards=2)
        assert sharded.provenance["shards"] == 2
        assert sharded.provenance["shards_effective"] == 1
        assert sharded.provenance["shard_fallback"] == CHAOS_SHARD_FALLBACK
        assert _record_rows(sharded) == _record_rows(single)
        assert sharded.requests_lost == single.requests_lost
        assert sharded.requests_shed == single.requests_shed

    def test_run_stream_falls_back_and_records_why(self):
        sim = _simulator(
            ContinuousBatching(max_batch_size=4), router="round_robin",
            num_chips=2, chaos=self.CHAOS,
        )
        stream = sorted(self.STREAM, key=lambda r: r.arrival_s)
        single = sim.run_stream(columnar_chunks(stream, 8), WORKLOADS)
        sharded = sim.run_stream(
            columnar_chunks(stream, 8), WORKLOADS, shards=2
        )
        assert sharded.provenance["shards"] == 2
        assert sharded.provenance["shards_effective"] == 1
        assert sharded.provenance["shard_fallback"] == CHAOS_SHARD_FALLBACK
        assert np.array_equal(
            sharded.latency_values(), single.latency_values()
        )

    def test_chaos_free_sharding_is_untouched(self):
        sim = _simulator(
            ContinuousBatching(max_batch_size=4), router="round_robin",
            num_chips=2,
        )
        result = sim.run(list(self.STREAM), shards=2)
        assert result.provenance["shards"] == 2
        assert "shard_fallback" not in result.provenance


class TestTimelineValidation:
    def test_incident_kinds_are_checked(self):
        with pytest.raises(ServingError, match="unknown incident kind"):
            Incident("meteor", 0.0, 1.0, chip=0)

    def test_start_must_be_finite_and_nonnegative(self):
        with pytest.raises(ServingError, match="finite"):
            chip_failure(0, -1.0, 1.0)
        with pytest.raises(ServingError, match="finite"):
            chip_failure(0, math.inf, 1.0)
        with pytest.raises(ServingError, match="finite"):
            chip_failure(0, math.nan, 1.0)

    def test_duration_must_be_positive_but_may_be_infinite(self):
        with pytest.raises(ServingError, match="duration"):
            chip_failure(0, 0.0, 0.0)
        with pytest.raises(ServingError, match="duration"):
            straggler(0, 0.0, -1.0, 2.0)
        assert chip_failure(0, 0.0, math.inf).end_s == math.inf

    def test_kind_specific_fields_are_enforced(self):
        with pytest.raises(ServingError, match="fleet-wide"):
            Incident("power_cap", 0.0, 1.0, chip=2, multiplier=2.0)
        with pytest.raises(ServingError, match="chip id"):
            Incident("chip_failure", 0.0, 1.0, chip=None)
        with pytest.raises(ServingError, match="no"):
            Incident("chip_failure", 0.0, 1.0, chip=0, multiplier=2.0)
        with pytest.raises(ServingError, match="multiplier"):
            Incident("straggler", 0.0, 1.0, chip=0)
        with pytest.raises(ServingError, match="multiplier"):
            Incident("straggler", 0.0, 1.0, chip=0, multiplier=0.0)

    def test_overlapping_failures_on_one_chip_are_rejected(self):
        with pytest.raises(ServingError, match="overlapping"):
            ChaosTimeline((
                chip_failure(1, 0.0, 1.0),
                chip_failure(1, 0.5, 1.0),
            ))
        # Touching windows and different chips are fine.
        ChaosTimeline((chip_failure(1, 0.0, 0.5), chip_failure(1, 0.5, 0.5)))
        ChaosTimeline((chip_failure(0, 0.0, 1.0), chip_failure(1, 0.5, 1.0)))

    def test_non_incident_entries_are_rejected(self):
        with pytest.raises(ServingError, match="Incident"):
            ChaosTimeline(({"kind": "chip_failure"},))

    def test_compile_rejects_out_of_range_chips(self):
        timeline = ChaosTimeline((chip_failure(3, 0.0, 1.0),))
        assert timeline.max_chip == 3
        with pytest.raises(ServingError, match="fleet has"):
            timeline.compile(2)
        with pytest.raises(ServingError, match="fleet has"):
            ServingSimulator(
                service_model=ChaosFakeModel(),
                fleet=Fleet(num_chips=2, router="round_robin"),
                chaos=timeline,
            )


class TestTimelineMechanics:
    def test_compile_orders_events_and_fans_out_power_caps(self):
        timeline = ChaosTimeline((
            power_cap(0.5, 0.5, 2.0),
            chip_failure(0, 0.5, 0.25),
            straggler(1, 0.1, 0.2, 4.0),
        ))
        events = timeline.compile(2)
        assert events == sorted(events, key=lambda e: (e[0], e[1], e[2]))
        ops = [op for _, op, _, _ in events]
        # power_cap fans out to one slow window per chip.
        assert ops.count(OP_SLOW_START) == 3
        assert ops.count(OP_SLOW_END) == 3
        assert ops.count(OP_FAIL) == 1
        assert ops.count(OP_RECOVER) == 1
        # Failure sorts before the slow-start at the shared instant.
        at_half = [op for t, op, _, _ in events if t == 0.5]
        assert at_half[0] == OP_FAIL

    def test_infinite_incidents_emit_no_closing_event(self):
        timeline = ChaosTimeline((chip_failure(0, 0.1, math.inf),))
        events = timeline.compile(1)
        assert [op for _, op, _, _ in events] == [OP_FAIL]

    def test_scaled_stretches_starts_and_durations(self):
        timeline = ChaosTimeline((
            chip_failure(0, 1.0, 2.0), straggler(1, 0.5, 1.0, 3.0),
        ))
        scaled = timeline.scaled(0.5)
        assert scaled.incidents[0].at_s == 0.5
        assert scaled.incidents[0].duration_s == 1.0
        assert scaled.incidents[1].multiplier == 3.0
        assert timeline.scaled(1.0) is timeline
        with pytest.raises(ServingError, match="positive"):
            timeline.scaled(0.0)

    def test_json_round_trip(self, tmp_path):
        timeline = ChaosTimeline((
            chip_failure(0, 0.25, 0.5),
            straggler(1, 0.1, 0.2, 4.0),
            power_cap(0.8, 0.1, 2.0),
        ))
        path = timeline.dump(tmp_path / "chaos.json")
        assert ChaosTimeline.load(path) == timeline
        assert ChaosTimeline.from_dict(
            json.loads(timeline.to_json())
        ) == timeline

    def test_malformed_json_fails_loudly(self, tmp_path):
        with pytest.raises(ServingError, match="incidents"):
            ChaosTimeline.from_dict({"events": []})
        with pytest.raises(ServingError, match="unknown incident fields"):
            ChaosTimeline.from_dict(
                {"incidents": [{"kind": "power_cap", "at_s": 0.0,
                                "duration_s": 1.0, "multiplier": 2.0,
                                "severity": "high"}]}
            )
        with pytest.raises(ServingError, match="missing field"):
            ChaosTimeline.from_dict(
                {"incidents": [{"kind": "chip_failure", "chip": 0}]}
            )
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ServingError, match="cannot read"):
            ChaosTimeline.load(bad)

    def test_seeded_storms_are_deterministic_and_valid(self):
        first = ChaosTimeline.seeded(
            11, num_chips=3, horizon_s=2.0,
            failure_rate=2.0, straggler_rate=3.0,
        )
        second = ChaosTimeline.seeded(
            11, num_chips=3, horizon_s=2.0,
            failure_rate=2.0, straggler_rate=3.0,
        )
        assert first == second
        assert first.incidents  # these rates always produce incidents
        other = ChaosTimeline.seeded(
            12, num_chips=3, horizon_s=2.0,
            failure_rate=2.0, straggler_rate=3.0,
        )
        assert first != other
        with pytest.raises(ServingError, match="num_chips"):
            ChaosTimeline.seeded(0, num_chips=0, horizon_s=1.0)
        with pytest.raises(ServingError, match="horizon"):
            ChaosTimeline.seeded(0, num_chips=1, horizon_s=0.0)


@pytest.fixture(scope="module")
def shared_model():
    """One memoized execution cache shared by every golden replay."""
    return ExecutionCache()


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
class TestEmptyTimelineGoldenEquivalence:
    """Zero-cost-when-off: an explicit empty timeline replays the goldens.

    ``test_differential.py`` pins the no-timeline path against the
    pre-chaos goldens; this pins the *other* way into the chaos layer —
    an empty ``--chaos`` document must not perturb a single timestamp.
    """

    def test_empty_timeline_reproduces_golden_records(
        self, name, shared_model
    ):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        _, result = run_scenario(
            name,
            seed=golden["seed"],
            load_scale=golden["load_scale"],
            duration_scale=golden["duration_scale"],
            service_model=shared_model,
            chaos=ChaosTimeline(()),
        )
        assert _record_rows(result) == golden["records"]
        assert result.energy_joules == golden["energy_joules"]
        assert result.horizon_s == golden["horizon_s"]
        assert result.requests_lost == 0
        assert result.requests_shed == 0
        assert result.incidents == ()
        assert "chaos" not in result.provenance
        assert "shard_fallback" not in result.provenance


class TestResilienceMetrics:
    def test_arguments_are_validated(self):
        sim = _simulator(NoBatching(), num_chips=1)
        result = sim.run([Request(0, "nvsa", 0.0)])
        with pytest.raises(ServingError, match="window_s"):
            resilience_metrics(result, window_s=0.0)
        with pytest.raises(ServingError, match="tolerance"):
            resilience_metrics(result, tolerance=0.5)

    def test_chaos_free_run_reports_counts_only(self):
        sim = _simulator(NoBatching(), num_chips=1)
        result = sim.run([Request(i, "nvsa", 0.01 * i) for i in range(5)])
        out = resilience_metrics(result)
        assert out["incidents"] == 0
        assert out["requests_arrived"] == 5
        assert out["requests_lost"] == 0
        assert out["pre_incident_p95_ms"] is None
        assert out["recovery_time_s"] is None

    def test_chip_outage_preset_has_losses_and_finite_recovery(self):
        """Acceptance: chip_outage reports non-zero losses and recovers."""
        scenario, result = run_scenario("chip_outage", duration_scale=0.2)
        out = resilience_metrics(result)
        assert out["requests_lost"] > 0
        assert out["requests_shed"] > 0
        assert (
            out["requests_completed"] + out["requests_lost"]
            + out["requests_shed"] == out["requests_arrived"]
        )
        assert out["recovery_time_s"] is not None
        assert math.isfinite(out["recovery_time_s"])
        assert out["tail_inflation_x"] > 1.0
        # The summary row surfaces the same conservation counters.
        row = summarize_result(result, scenario.slo_s)
        assert row["requests_lost"] == out["requests_lost"]
        assert row["requests_shed"] == out["requests_shed"]
        assert row["requests_arrived"] == out["requests_arrived"]

    def test_never_recovering_outage_reports_infinite_recovery(self):
        # Infinite-duration failure: the tail never re-converges, so the
        # metric must say "never recovered" (inf), not None (no baseline).
        sim = _simulator(
            NoBatching(), num_chips=2,
            chaos=ChaosTimeline((chip_failure(0, 0.3, float("inf")),)),
        )
        result = sim.run(
            [Request(i, "nvsa", 0.01 * i) for i in range(40)]
        )
        out = resilience_metrics(result)
        assert out["pre_incident_p95_ms"] is not None
        assert out["recovery_time_s"] == float("inf")
        assert not math.isfinite(out["recovery_time_s"])

    def test_streamed_results_report_counts_without_percentiles(self):
        stream = sorted(
            [Request(i, "nvsa", 0.001 * i) for i in range(60)],
            key=lambda r: r.arrival_s,
        )
        sim = _simulator(
            ContinuousBatching(max_batch_size=4), num_chips=2,
            chaos=ChaosTimeline((chip_failure(0, 0.02, 0.05),)),
        )
        result = sim.run_stream(columnar_chunks(stream, 8), ("nvsa",))
        out = resilience_metrics(result)
        assert out["incidents"] == len(result.incidents)
        assert out["requests_arrived"] == 60
        assert out["pre_incident_p95_ms"] is None
        assert out["during_p95_ms"] is None
        assert out["recovery_time_s"] is None

    def test_summary_row_shape_is_unchanged_without_chaos(self):
        sim = _simulator(NoBatching(), num_chips=1)
        result = sim.run([Request(i, "nvsa", 0.01 * i) for i in range(5)])
        row = summarize_result(result, 1.0)
        assert "requests_lost" not in row
        assert "requests_arrived" not in row
