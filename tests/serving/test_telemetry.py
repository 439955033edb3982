"""Tests for the windowed telemetry layer, its exporters and the CLI flags.

The load-bearing guarantee is byte-identity: the full-trace (``run``),
streamed (``run_stream``) and sharded paths must produce *equal* window
rows for the same request stream — every float included.  Hypothesis
drives that over adversarial streams; golden JSONL snapshots pin the
exported bytes for two presets.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ServingError
from repro.serving import simulator
from repro.serving.batching import ContinuousBatching, NoBatching
from repro.serving.chaos import (
    ChaosTimeline,
    chip_failure,
    power_cap,
    straggler,
)
from repro.serving.exporters import (
    TELEMETRY_FORMAT,
    render_dashboard,
    to_prometheus,
    write_jsonl,
    write_spans_jsonl,
)
from repro.serving.control import ControllerConfig
from repro.serving.fleet import Fleet
from repro.serving.scenarios import run_scenario
from repro.serving.simulator import ServingSimulator, columnar_chunks
from repro.serving.telemetry import (
    SPAN_FIELDS,
    TELEMETRY_FIELDS,
    TelemetryCollector,
    derive_series,
    request_spans,
)
from repro.serving.traffic import Request

WORKLOADS = ("lvrf", "mimonet", "nvsa", "prae")

#: window width used throughout — coarse enough for multi-window runs,
#: fine enough to exercise batch-spans-window accounting
WINDOW_S = 0.5


class TelemetryFakeModel:
    """Deterministic per-workload service model (1 W chip: energy == busy)."""

    scheduler = "fake"
    cached_reports = 0

    BASE = {"lvrf": 0.8, "mimonet": 0.2, "nvsa": 1.0, "prae": 0.5}

    def service_seconds(self, workload, batch_size):
        return self.BASE[workload] * (0.5 + 0.5 * batch_size)

    def energy_joules(self, workload, batch_size):
        return self.service_seconds(workload, batch_size)


#: adversarial request streams on a 0.1 s grid (simultaneous arrivals,
#: duplicate instants), same shape as the invariant harness uses
request_streams = st.lists(
    st.tuples(
        st.sampled_from(WORKLOADS),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=40,
).map(
    lambda entries: [
        Request(request_id=index, workload=workload, arrival_s=tick / 10.0)
        for index, (workload, tick) in enumerate(
            sorted(entries, key=lambda e: e[1])
        )
    ]
)


#: chaos inputs for the stream/full-trace identity: requests lost in
#: flight and shed from queues (then recovered, or never), a slow chip and
#: a fleet-wide power cap
CHAOS_TIMELINES = {
    "no-chaos": None,
    "finite-failure": ChaosTimeline((chip_failure(0, 1.0, 1.5),)),
    "never-recovering": ChaosTimeline((chip_failure(0, 1.0, math.inf),)),
    "straggler": ChaosTimeline((straggler(0, 0.5, 2.0, 3.0),)),
    "power-cap": ChaosTimeline((power_cap(1.0, 2.0, 2.0),)),
}


def _simulator(num_chips, router="round_robin", policy=None, chaos=None):
    return ServingSimulator(
        service_model=TelemetryFakeModel(),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy or ContinuousBatching(max_batch_size=4, slo_s=2.0),
        chaos=chaos,
    )


class TestWindowConservation:
    @pytest.mark.parametrize(
        "chaos", CHAOS_TIMELINES.values(), ids=CHAOS_TIMELINES.keys()
    )
    @settings(max_examples=25, deadline=None)
    @given(stream=request_streams, num_chips=st.integers(1, 3))
    def test_per_window_counts_conserve_totals(
        self, stream, num_chips, chaos, telemetry_contract
    ):
        sim = _simulator(num_chips, chaos=chaos)
        result = sim.run(stream, telemetry_window_s=WINDOW_S)
        series = result.telemetry
        assert series.requests == result.requests_arrived == len(stream)
        assert sum(series.column("batches")) == result.num_batches
        telemetry_contract(result)
        telemetry_contract(sim.run_stream(
            columnar_chunks(stream, 7),
            sorted({request.workload for request in stream}),
            telemetry_window_s=WINDOW_S,
        ))
        # Windows tile [first arrival window, horizon window] contiguously.
        windows = series.column("window")
        assert windows == list(range(windows[0], windows[0] + len(windows)))
        for row in series.windows:
            assert 0.0 <= row["utilization"] <= 1.0
            assert len(row["queue_depth"]) == num_chips
            assert len(row["inflight"]) == num_chips
            assert all(depth >= 0 for depth in row["queue_depth"])
            assert all(count >= 0 for count in row["inflight"])
        # Everything drains by the horizon.
        assert series.windows[-1]["queue_depth"] == [0] * num_chips
        assert series.windows[-1]["inflight"] == [0] * num_chips

    @pytest.mark.parametrize(
        "chaos", CHAOS_TIMELINES.values(), ids=CHAOS_TIMELINES.keys()
    )
    @settings(max_examples=25, deadline=None)
    @given(stream=request_streams, num_chips=st.integers(1, 3))
    def test_streamed_and_sharded_series_match_full_trace(
        self, stream, num_chips, chaos
    ):
        sim = _simulator(num_chips, chaos=chaos)
        full = sim.run(stream, telemetry_window_s=WINDOW_S)
        workloads = sorted({request.workload for request in stream})
        streamed = sim.run_stream(
            columnar_chunks(stream, 7), workloads, telemetry_window_s=WINDOW_S
        )
        sharded = sim.run(
            stream, shards=num_chips, telemetry_window_s=WINDOW_S
        )
        sharded_stream = sim.run_stream(
            columnar_chunks(stream, 7), workloads, shards=num_chips,
            telemetry_window_s=WINDOW_S,
        )
        assert streamed.telemetry.windows == full.telemetry.windows
        assert sharded.telemetry.windows == full.telemetry.windows
        assert sharded_stream.telemetry.windows == full.telemetry.windows

    @pytest.mark.parametrize("surface", ("run", "run_stream"))
    @pytest.mark.parametrize(
        "chaos", CHAOS_TIMELINES.values(), ids=CHAOS_TIMELINES.keys()
    )
    @settings(max_examples=15, deadline=None)
    @given(stream=request_streams)
    def test_energy_windows_sum_to_run_total(self, stream, chaos, surface):
        # Straggler and power-cap batches cost their scaled energy.
        sim = _simulator(2, policy=NoBatching(), chaos=chaos)
        if surface == "run":
            result = sim.run(stream, telemetry_window_s=WINDOW_S)
        else:
            result = sim.run_stream(
                columnar_chunks(stream, 7),
                sorted({request.workload for request in stream}),
                telemetry_window_s=WINDOW_S,
            )
        total = sum(result.telemetry.column("energy_j"))
        assert total == pytest.approx(result.energy_joules, rel=1e-9)


class TestStreamedTelemetryMemory:
    def test_open_windows_stay_bounded_under_never_recovering_failure(
        self, monkeypatch
    ):
        # Requests lost, shed or stranded on the dead chip never emit; the
        # collector must still flush past them instead of holding every
        # window after the first drop open until the stream ends.
        open_windows = []
        flush = TelemetryCollector._flush

        def spy(collector, *args):
            flush(collector, *args)
            open_windows.append(collector._fed_idx - collector._next)

        monkeypatch.setattr(TelemetryCollector, "_flush", spy)
        stream = [
            Request(request_id=i, workload=WORKLOADS[i % 4], arrival_s=0.2 * i)
            for i in range(10_000)
        ]
        sim = _simulator(
            4, router="jsq",
            chaos=ChaosTimeline((chip_failure(1, 100.0, math.inf),)),
        )
        streamed = sim.run_stream(
            columnar_chunks(stream, 256), WORKLOADS, telemetry_window_s=WINDOW_S
        )
        assert streamed.requests_lost + streamed.requests_shed > 0
        assert streamed.telemetry.num_windows > 4000
        # One chunk spans ~100 windows; the feed runs at most that far ahead.
        assert max(open_windows) <= 200
        full = sim.run(stream, telemetry_window_s=WINDOW_S)
        assert streamed.telemetry.windows == full.telemetry.windows


class TestStreamedLogFlushes:
    """``run_stream`` decodes its batch log between chunks and every
    ``EMIT_LOG_BATCHES`` batches; where the flushes fall changes no byte."""

    @pytest.mark.parametrize("limit", (1, 7))
    @pytest.mark.parametrize(
        "chaos", CHAOS_TIMELINES.values(), ids=CHAOS_TIMELINES.keys()
    )
    def test_flush_points_change_no_byte(self, monkeypatch, chaos, limit):
        stream = [
            Request(request_id=i, workload=WORKLOADS[i % 4], arrival_s=0.1 * i)
            for i in range(120)
        ]
        sim = _simulator(2, policy=NoBatching(), chaos=chaos)

        def streamed():
            return sim.run_stream(
                columnar_chunks(stream, 50), WORKLOADS,
                telemetry_window_s=WINDOW_S,
            )

        expected = streamed()
        monkeypatch.setattr(simulator, "EMIT_LOG_BATCHES", limit)
        actual = streamed()
        assert actual.telemetry == expected.telemetry
        assert sum(actual.telemetry.column("energy_j")) == pytest.approx(
            actual.energy_joules, rel=1e-9
        )
        arrays = (
            lambda result: [result.latency_s, result.queue_delay_s,
                            *result.workload_latency_s.values(),
                            *result.chip_latency_s]
        )
        assert [values.tobytes() for values in arrays(actual)] == [
            values.tobytes() for values in arrays(expected)
        ]


class TestTelemetrySeries:
    def _series(self, entries, **kwargs):
        stream = [
            Request(request_id=index, workload=workload, arrival_s=arrival)
            for index, (workload, arrival) in enumerate(entries)
        ]
        sim = _simulator(kwargs.pop("num_chips", 2), **kwargs)
        return sim.run(stream, telemetry_window_s=WINDOW_S).telemetry

    def test_rows_carry_the_frozen_schema(self):
        series = self._series([("nvsa", 0.0), ("mimonet", 0.3)])
        for row in series.windows:
            assert tuple(row) == TELEMETRY_FIELDS

    def test_empty_window_has_null_percentiles(self):
        # One request at t=0 (1 s service), next at 2.6 s: the middle
        # window sees no completions.
        series = self._series([("mimonet", 0.0), ("mimonet", 2.6)])
        quiet = [row for row in series.windows if row["completions"] == 0]
        assert quiet
        assert all(row["p99_ms"] is None for row in quiet)

    def test_shed_instants_clamp_into_the_window_range(self):
        from repro.serving.simulator import _EmitLog
        from repro.serving.telemetry import _series_from_emits

        emits = _EmitLog()
        emits.emit(0, 0.6, 0.9, 1, "nvsa", ((0.6,), (0,)))
        emits.emit(0, 1.2, 1.6, 1, "nvsa", ((1.2,), (1,)))
        series = _series_from_emits(
            emits.take(("nvsa",)), ("nvsa",), 1,
            lambda chip, workload, size: 1.0,
            WINDOW_S, 1.6, 0.6, shed_s=[0.1, 0.7, 9.0],
        )
        assert series.column("window") == [1, 2, 3]
        assert series.column("shed") == [2, 0, 1]

    def test_unknown_column_rejected(self):
        series = self._series([("nvsa", 0.0)])
        with pytest.raises(ServingError, match="unknown telemetry field"):
            series.column("p42_ms")

    @pytest.mark.parametrize("window_s", (0.0, math.inf, 1e-303, 1e-12))
    def test_bad_window_rejected(self, window_s):
        sim = _simulator(1)
        with pytest.raises(ServingError, match="window"):
            sim.run(
                [Request(request_id=0, workload="nvsa", arrival_s=0.0)],
                telemetry_window_s=window_s,
            )

    @pytest.mark.parametrize("chunk_size", (1, 8))
    def test_window_count_cap_holds_when_streamed(self, chunk_size):
        # One chunk per request makes the collector's mid-stream flush
        # meet the cap; one chunk for both leaves it to the final flush.
        stream = [
            Request(request_id=0, workload="nvsa", arrival_s=0.0),
            Request(request_id=1, workload="nvsa", arrival_s=1.0),
        ]
        with pytest.raises(ServingError, match="windows; at most 1000000"):
            _simulator(1).run_stream(
                columnar_chunks(stream, chunk_size), ["nvsa"],
                telemetry_window_s=1e-9,
            )

    def test_telemetry_off_by_default(self):
        sim = _simulator(1)
        result = sim.run(
            [Request(request_id=0, workload="nvsa", arrival_s=0.0)]
        )
        assert result.telemetry is None


class TestDeriveSeries:
    """The post-hoc series equals the collected one wherever it is allowed."""

    WINDOW_S = 0.02

    @pytest.fixture(scope="class")
    def cache(self):
        from repro.backends import ExecutionCache

        return ExecutionCache()

    def _run(self, cache, name, **overrides):
        _, result = run_scenario(
            name, duration_scale=0.2, service_model=cache,
            telemetry_window_s=self.WINDOW_S, **overrides,
        )
        return result

    @pytest.mark.parametrize(
        ("name", "overrides"),
        (
            ("steady", {}),
            ("mixed_workload", {"router": "affinity"}),
            ("steady", {"num_chips": 4, "router": "round_robin",
                        "shards": 2, "shard_workers": 1}),
            ("session_surge", {"load_scale": 0.1}),
        ),
        ids=("plain", "affinity", "sharded", "sessions"),
    )
    def test_matches_the_run_series(self, cache, name, overrides):
        result = self._run(cache, name, **overrides)
        assert "shard_fallback" not in result.provenance
        derived = derive_series(
            result, self.WINDOW_S, [cache] * result.num_chips
        )
        assert derived.windows == result.telemetry.windows

    @pytest.mark.parametrize(
        ("name", "overrides"),
        (
            ("chip_outage", {}),
            ("straggler_storm", {}),
            ("flash_crowd",
             {"controller": ControllerConfig(policy="target_util")}),
        ),
        ids=("chip-outage", "straggler-storm", "controlled"),
    )
    def test_chaos_and_controlled_runs_rejected(self, cache, name, overrides):
        result = self._run(cache, name, **overrides)
        with pytest.raises(ServingError, match="telemetry_window_s"):
            derive_series(result, self.WINDOW_S, [cache] * result.num_chips)


class ZeroServiceModel:
    """Batches take no time and cost 1 J each."""

    scheduler = "fake"
    cached_reports = 0

    def service_seconds(self, workload, batch_size):
        return 0.0

    def energy_joules(self, workload, batch_size):
        return 1.0


class TestZeroServiceBatches:
    """A chip may dispatch several batches at one instant.

    16 ``nvsa`` requests arrive in groups of 4 simultaneous requests and
    are served one per batch at their arrival instant, so every batch
    counts: 16 batches, 16 J.
    """

    STREAM = [
        Request(request_id=index, workload="nvsa", arrival_s=(index // 4) * 0.3)
        for index in range(16)
    ]

    def _simulator(self, num_chips):
        return ServingSimulator(
            service_model=ZeroServiceModel(),
            fleet=Fleet(num_chips=num_chips, router="round_robin"),
            batching_policy=NoBatching(),
        )

    @staticmethod
    def _totals(series):
        return sum(series.column("batches")), sum(series.column("energy_j"))

    def test_sharded_series_counts_every_batch(self):
        sim = self._simulator(2)
        full = sim.run(self.STREAM, telemetry_window_s=WINDOW_S)
        assert self._totals(full.telemetry) == (16, 16.0)
        sharded = sim.run(
            self.STREAM, shards=2, shard_workers=1, telemetry_window_s=WINDOW_S
        )
        streamed = sim.run_stream(
            columnar_chunks(self.STREAM, 5), ["nvsa"], shards=2,
            shard_workers=1, telemetry_window_s=WINDOW_S,
        )
        assert sharded.provenance["shards_effective"] == 2
        assert sharded.records == full.records
        assert sharded.telemetry == full.telemetry
        assert streamed.telemetry == full.telemetry

    @pytest.mark.parametrize("num_chips", (1, 2))
    def test_derived_series_counts_every_batch(self, num_chips):
        sim = self._simulator(num_chips)
        result = sim.run(self.STREAM, telemetry_window_s=WINDOW_S)
        derived = derive_series(result, WINDOW_S, sim._chip_models())
        assert self._totals(derived) == (16, 16.0)
        assert derived == result.telemetry


class PricedZeroServiceModel(ZeroServiceModel):
    """Zero-time batches costing 1 J (``nvsa``) or 5 J (``lvrf``)."""

    def energy_joules(self, workload, batch_size):
        return {"nvsa": 1.0, "lvrf": 5.0}[workload]


class TestSameInstantScaledEnergy:
    """A straggler scales batches a chip dispatches at one instant.

    16 alternating ``lvrf``/``nvsa`` requests arrive in groups of 4
    simultaneous requests on one chip.  The straggler (x3) starts at the
    first group's instant, after its arrivals, so the first 4 batches cost
    12 J and the other 12 cost 3 x 36 J: 120 J, every batch in a window.
    """

    STREAM = [
        Request(
            request_id=index,
            workload=("lvrf", "nvsa")[index % 2],
            arrival_s=(index // 4) * 0.3,
        )
        for index in range(16)
    ]

    @pytest.mark.parametrize("surface", ("run", "run_stream"))
    def test_window_energy_sums_to_the_run_total(self, surface):
        sim = ServingSimulator(
            service_model=PricedZeroServiceModel(),
            fleet=Fleet(num_chips=1, router="round_robin"),
            batching_policy=NoBatching(),
            chaos=ChaosTimeline((straggler(0, 0.0, 100.0, 3.0),)),
        )
        if surface == "run":
            result = sim.run(self.STREAM, telemetry_window_s=WINDOW_S)
        else:
            result = sim.run_stream(
                columnar_chunks(self.STREAM, 5), ["lvrf", "nvsa"],
                telemetry_window_s=WINDOW_S,
            )
        assert result.energy_joules == 120.0
        assert sum(result.telemetry.column("batches")) == 16
        assert sum(result.telemetry.column("energy_j")) == 120.0


class TestRequestSpans:
    def test_spans_decompose_latency(self):
        stream = [
            Request(request_id=index, workload="nvsa", arrival_s=0.0)
            for index in range(3)
        ]
        sim = _simulator(1, policy=NoBatching())
        spans = request_spans(sim.run(stream))
        assert len(spans) == 3
        for span in spans:
            assert tuple(span) == SPAN_FIELDS
            assert span["queue_wait_s"] + span["service_s"] == pytest.approx(
                span["latency_s"]
            )

    def test_streamed_results_rejected(self):
        sim = _simulator(1)
        stream = [Request(request_id=0, workload="nvsa", arrival_s=0.0)]
        streamed = sim.run_stream(columnar_chunks(stream, 8), ["nvsa"])
        with pytest.raises(ServingError, match="per-request records"):
            request_spans(streamed)


class TestExporters:
    def _series(self):
        stream = [
            Request(request_id=index, workload=workload, arrival_s=0.2 * index)
            for index, workload in enumerate(("nvsa", "mimonet", "lvrf"))
        ]
        sim = _simulator(2)
        return sim.run(stream, telemetry_window_s=WINDOW_S)

    def test_jsonl_roundtrip(self, tmp_path):
        result = self._series()
        path = write_jsonl(
            tmp_path / "telemetry.jsonl", result.telemetry,
            source={"scenario": "unit"},
        )
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == TELEMETRY_FORMAT
        assert header["fields"] == list(TELEMETRY_FIELDS)
        assert header["source"] == {"scenario": "unit"}
        rows = [json.loads(line) for line in lines[1:]]
        assert len(rows) == header["num_windows"]
        assert sum(row["completions"] for row in rows) == header["completed"]

    def test_spans_jsonl(self, tmp_path):
        result = self._series()
        path = write_spans_jsonl(
            tmp_path / "spans.jsonl", request_spans(result)
        )
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "cogsys-serving-spans"
        assert header["num_spans"] == len(lines) - 1
        assert json.loads(lines[1])["request_id"] == 0

    def test_prometheus_exposition(self):
        result = self._series()
        text = to_prometheus(result.telemetry)
        assert "# TYPE repro_serving_completions gauge" in text
        assert 'repro_serving_queue_depth{chip="1"}' in text
        assert "None" not in text

    def test_dashboard_renders_panels(self):
        result = self._series()
        view = render_dashboard(result.telemetry, title="unit run")
        assert "unit run" in view
        assert "completions/s" in view
        assert "utilization" in view

    def test_dashboard_rejects_empty_series(self):
        from repro.serving.telemetry import TelemetrySeries

        empty = TelemetrySeries(window_s=0.1, num_chips=1, windows=())
        with pytest.raises(ServingError, match="empty"):
            render_dashboard(empty)


class TestServeTelemetryCLI:
    ARGS = ["--load-scale", "0.2", "--duration-scale", "0.2"]

    def test_telemetry_export(self, tmp_path, capsys):
        out = tmp_path / "telemetry.jsonl"
        assert main(
            ["serve", "steady", *self.ARGS, "--telemetry", str(out),
             "--window-ms", "20"]
        ) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["format"] == TELEMETRY_FORMAT
        assert header["window_s"] == pytest.approx(0.02)
        assert header["source"]["scenario"] == "steady"

    def test_telemetry_prometheus_export(self, tmp_path, capsys):
        out = tmp_path / "telemetry.prom"
        assert main(
            ["serve", "steady", *self.ARGS, "--telemetry", str(out),
             "--telemetry-format", "prom"]
        ) == 0
        assert "# TYPE repro_serving_arrivals gauge" in out.read_text()

    def test_dashboard_renders(self, capsys):
        assert main(["serve", "steady", *self.ARGS, "--dashboard"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "completions/s" in out

    def test_sharded_telemetry_export_matches_single_shard(
        self, tmp_path, capsys
    ):
        single = tmp_path / "single.jsonl"
        sharded = tmp_path / "sharded.jsonl"
        base = [
            "serve", "steady", *self.ARGS, "--chips", "4",
            "--router", "round_robin",
        ]
        assert main([*base, "--telemetry", str(single)]) == 0
        assert main(
            [*base, "--shards", "4", "--telemetry", str(sharded)]
        ) == 0
        assert single.read_bytes() == sharded.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        (
            ["serve", "steady", "--window-ms", "20"],
            ["serve", "steady", "--telemetry-format", "prom"],
            ["serve", "steady", "--dashboard", "--format", "json"],
            ["serve", "steady", "--profile", "--telemetry", "x.jsonl"],
            ["serve", "--list", "--dashboard"],
            ["serve", "steady", "--telemetry", "x.jsonl", "--window-ms", "0"],
            ["serve", "steady", "--duration-scale", "0.05",
             "--telemetry", "x.jsonl", "--window-ms", "inf"],
            ["serve", "steady", "--duration-scale", "0.05",
             "--telemetry", "x.jsonl", "--window-ms", "1e-300"],
        ),
        ids=(
            "window-without-telemetry", "format-without-telemetry",
            "dashboard-json", "profile-telemetry", "list-dashboard",
            "zero-window", "infinite-window", "overflowing-window",
        ),
    )
    def test_stray_telemetry_flags_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestGoldenTelemetry:
    """Exported JSONL bytes for two presets, frozen at capture time.

    Regenerate only on a deliberate semantics change (see
    ``tests/serving/golden/README.md``).
    """

    @pytest.mark.parametrize("name", ("steady", "flash_crowd"))
    def test_export_matches_golden_snapshot(self, name, tmp_path):
        from pathlib import Path

        from repro.serving.scenarios import run_scenario

        _, result = run_scenario(
            name, seed=0, load_scale=1.0, duration_scale=0.1,
            telemetry_window_s=0.02,
        )
        path = write_jsonl(
            tmp_path / f"{name}.jsonl", result.telemetry,
            source={"scenario": name, "seed": 0},
        )
        golden = (
            Path(__file__).parent / "golden" / f"telemetry_{name}.jsonl"
        )
        assert path.read_bytes() == golden.read_bytes()
