"""Tests for JSONL request traces: format, streaming replay, acceptance."""

import json
import time

import pytest

from repro.errors import ServingError
from repro.serving.batching import build_policy
from repro.serving.fleet import Fleet, FleetServiceModel
from repro.serving.metrics import per_workload_summary, summarize_result
from repro.serving.scenarios import get_scenario
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import (
    RequestTrace,
    read_header,
    record_process,
    record_scenario,
    replay_trace,
    write_trace,
)
from repro.serving.traffic import PoissonArrivals, Request, WorkloadMix


class TestFormat:
    def test_roundtrip_preserves_every_request(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        original = PoissonArrivals(500.0, WorkloadMix.uniform()).generate(
            1.0, seed=3
        )
        info = write_trace(path, original, source={"origin": "unit-test"})
        assert info.num_requests == len(original)
        assert info.source["origin"] == "unit-test"
        assert RequestTrace(path).requests() == original

    def test_header_carries_workloads_and_duration(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        requests = [
            Request(0, "nvsa", 0.5),
            Request(1, "mimonet", 1.0),
            Request(2, "nvsa", 2.5),
        ]
        info = write_trace(path, requests)
        assert info.workloads == ("mimonet", "nvsa")
        assert info.duration_s == 2.5
        # The header is the first (fixed-width, greppable) line.
        first_line = path.read_text().splitlines()[0]
        assert json.loads(first_line)["format"] == "cogsys-request-trace"

    def test_unsorted_stream_is_rejected_at_recording(self, tmp_path):
        requests = [Request(0, "nvsa", 1.0), Request(1, "nvsa", 0.5)]
        with pytest.raises(ServingError, match="sorted"):
            write_trace(tmp_path / "bad.jsonl", requests)

    def test_non_increasing_ids_are_rejected_at_recording(self, tmp_path):
        requests = [Request(5, "nvsa", 0.1), Request(5, "nvsa", 0.2)]
        with pytest.raises(ServingError, match="strictly increasing"):
            write_trace(tmp_path / "bad.jsonl", requests)

    def test_empty_stream_is_rejected(self, tmp_path):
        with pytest.raises(ServingError, match="empty"):
            write_trace(tmp_path / "bad.jsonl", [])

    def test_non_trace_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text("hello world\n")
        with pytest.raises(ServingError, match="not a request trace"):
            read_header(path)

    def test_truncated_trace_fails_loudly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(
            path,
            [Request(i, "nvsa", i / 10.0) for i in range(10)],
        )
        lines = path.read_bytes().splitlines(keepends=True)
        (tmp_path / "cut.jsonl").write_bytes(b"".join(lines[:-2]))
        trace = RequestTrace(tmp_path / "cut.jsonl")
        with pytest.raises(ServingError, match="truncated"):
            list(trace.iter_chunks())

    def test_tampered_workload_is_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Request(0, "nvsa", 0.0), Request(1, "nvsa", 0.5)])
        tampered = path.read_text().replace('"nvsa", 0.5', '"bogus", 0.5')
        (tmp_path / "bad.jsonl").write_text(tampered)
        with pytest.raises(ServingError, match="bogus"):
            list(RequestTrace(tmp_path / "bad.jsonl").iter_chunks())

    @pytest.mark.parametrize("position", (0, 1, 2))
    @pytest.mark.parametrize("token", ("NaN", "Infinity"))
    def test_non_finite_arrival_is_rejected(self, tmp_path, token, position):
        # A NaN arrival passes every ordering comparison and an Infinity on
        # the last line passes the sortedness check, so both need their own.
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Request(i, "nvsa", 0.25 * i) for i in range(3)])
        lines = path.read_text().splitlines(keepends=True)
        lines[1 + position] = f'[{position}, "nvsa", {token}]\n'
        (tmp_path / "bad.jsonl").write_text("".join(lines))
        with pytest.raises(ServingError, match="non-finite arrival"):
            list(RequestTrace(tmp_path / "bad.jsonl").iter_chunks())

    @pytest.mark.parametrize("line", (
        # Each used to escape as a bare TypeError.
        "5",
        '{"a": 0, "nvsa": 1, "c": 2}',
        '[0, "nvsa", "0.1"]',
        '[null, "nvsa", 0.1]',
        '[0, ["nvsa"], 0.1]',
        # Each used to replay silently as a number.
        '[0, "nvsa", true]',
        '[0.5, "nvsa", 0.1]',
        '[true, "nvsa", 0.1]',
    ))
    def test_mistyped_line_is_rejected(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Request(i, "nvsa", 0.25 * i) for i in range(3)])
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = line + "\n"
        (tmp_path / "bad.jsonl").write_text("".join(lines))
        with pytest.raises(ServingError, match="malformed line near request 0"):
            list(RequestTrace(tmp_path / "bad.jsonl").iter_chunks())

    def test_integer_arrival_is_accepted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Request(0, "nvsa", 0.0), Request(1, "nvsa", 2.0)])
        text = path.read_text().replace('[1, "nvsa", 2.0]', '[1, "nvsa", 2]')
        (tmp_path / "int.jsonl").write_text(text)
        assert list(RequestTrace(tmp_path / "int.jsonl").iter_chunks()) == [
            ([0.0, 2], ["nvsa", "nvsa"], [0, 1])
        ]


class TestChunking:
    def test_chunks_partition_the_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        info = record_process(
            path, PoissonArrivals(400.0, WorkloadMix.uniform()), 1.0, seed=1
        )
        chunks = list(RequestTrace(path).iter_chunks(chunk_size=64))
        assert sum(len(ids) for _, _, ids in chunks) == info.num_requests
        assert all(len(ids) <= 64 for _, _, ids in chunks)
        flat = [i for _, _, ids in chunks for i in ids]
        assert flat == sorted(flat)

    def test_windowed_recording_streams_in_bounded_memory(self, tmp_path):
        # Windowed generation must produce a valid, sorted, id-continuous
        # trace even though every window is generated independently.
        path = tmp_path / "trace.jsonl"
        info = record_process(
            path,
            PoissonArrivals(300.0, WorkloadMix.uniform()),
            duration_s=2.0,
            seed=4,
            window_s=0.25,
        )
        requests = RequestTrace(path).requests()
        assert [r.request_id for r in requests] == list(range(len(requests)))
        assert info.source["window_s"] == 0.25


class TestReplay:
    def test_streamed_replay_matches_in_memory_run(self, tmp_path):
        path = tmp_path / "steady.jsonl"
        record_scenario(path, "steady", seed=0, duration_scale=0.1)
        scenario = get_scenario("steady")
        fleet = Fleet(num_chips=scenario.num_chips, router=scenario.router)
        model = FleetServiceModel(fleet=fleet)
        streamed = replay_trace(
            path,
            num_chips=scenario.num_chips,
            router=scenario.router,
            policy=scenario.policy,
            service_model=model,
            chunk_size=37,  # deliberately awkward chunking
        )
        simulator = ServingSimulator(
            service_model=model,
            fleet=fleet,
            batching_policy=build_policy(scenario.policy),
        )
        in_memory = simulator.run(RequestTrace(path).requests())
        assert summarize_result(streamed, scenario.slo_s) == summarize_result(
            in_memory, scenario.slo_s
        )
        assert per_workload_summary(streamed, scenario.slo_s) == (
            per_workload_summary(in_memory, scenario.slo_s)
        )
        assert streamed.num_batches == in_memory.num_batches
        assert streamed.energy_joules == in_memory.energy_joules
        assert streamed.chip_busy_s == in_memory.chip_busy_s

    def test_replay_is_deterministic(self, tmp_path):
        path = tmp_path / "flash.jsonl"
        record_scenario(path, "flash_crowd", seed=9, duration_scale=0.1)
        first = replay_trace(path, chunk_size=50)
        second = replay_trace(path, chunk_size=200)  # chunking is irrelevant
        assert first.latency_s.tolist() == second.latency_s.tolist()
        assert first.chip_requests == second.chip_requests
        assert first.energy_joules == second.energy_joules

    def test_recorded_scenario_replay_reproduces_scenario_metrics(
        self, tmp_path
    ):
        # Replaying a recorded scenario on the scenario's own fleet is the
        # same experiment as running the scenario directly.
        from repro.serving.scenarios import run_scenario

        path = tmp_path / "mixed.jsonl"
        record_scenario(path, "mixed_workload", seed=2, duration_scale=0.1)
        scenario, direct = run_scenario(
            "mixed_workload", seed=2, duration_scale=0.1
        )
        streamed = replay_trace(
            path,
            num_chips=scenario.num_chips,
            router=scenario.router,
            policy=scenario.policy,
        )
        assert summarize_result(streamed, scenario.slo_s) == summarize_result(
            direct, scenario.slo_s
        )


class TestAcceptance:
    @pytest.mark.slow
    def test_million_request_trace_replays_deterministically_in_budget(
        self, tmp_path
    ):
        """Acceptance: 1M recorded requests replay via the streaming core
        deterministically and in well under the 120 s budget."""
        path = tmp_path / "million.jsonl"
        info = record_process(
            path,
            PoissonArrivals(10000.0, WorkloadMix.uniform()),
            duration_s=100.0,
            seed=7,
            window_s=5.0,
        )
        assert info.num_requests >= 1_000_000
        started = time.perf_counter()
        first = replay_trace(path, num_chips=4)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        assert first.num_requests == info.num_requests
        second = replay_trace(path, num_chips=4)
        assert first.latency_s.tolist() == second.latency_s.tolist()
        assert first.energy_joules == second.energy_joules
