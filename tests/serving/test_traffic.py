"""Tests for the seeded arrival-process generators."""

import math

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving.traffic import (
    MMPPArrivals,
    PoissonArrivals,
    Request,
    RequestStream,
    TraceArrivals,
    WorkloadMix,
    concatenate_segments,
)


class TestRequest:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ServingError):
            Request(request_id=0, workload="nvsa", arrival_s=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, bad):
        with pytest.raises(ServingError, match="non-finite arrival"):
            Request(request_id=0, workload="nvsa", arrival_s=bad)

    @pytest.mark.parametrize(
        "bad", [10**400, -(10**400)], ids=("positive", "negative")
    )
    def test_arrival_beyond_float_range_rejected(self, bad):
        with pytest.raises(
            ServingError, match=f"^request 0 has non-finite arrival time {bad}$"
        ):
            Request(request_id=0, workload="nvsa", arrival_s=bad)


class TestRequestStream:
    def _stream(self):
        return RequestStream(
            [0.0, 0.5, 0.5, 2.0], ["nvsa", "lvrf", "prae", "nvsa"], [3, 4, 7, 8]
        )

    def test_columns_are_tuples(self):
        stream = self._stream()
        assert stream.arrivals == (0.0, 0.5, 0.5, 2.0)
        assert stream.workloads == ("nvsa", "lvrf", "prae", "nvsa")
        assert stream.ids == (3, 4, 7, 8)

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ServingError, match="near request 5"):
            RequestStream([0.0, 1.0, 0.5], ["nvsa"] * 3, [3, 4, 5])

    @pytest.mark.parametrize("ids", [[0, 1, 1], [0, 2, 1]])
    def test_repeated_or_decreasing_ids_rejected(self, ids):
        with pytest.raises(ServingError, match="strictly increasing ids"):
            RequestStream([0.0, 1.0, 2.0], ["nvsa"] * 3, ids)

    def test_negative_arrival_message_is_unchanged(self):
        with pytest.raises(
            ServingError, match=r"^request 3 has negative arrival time -0\.5$"
        ):
            RequestStream([-0.5, 1.0], ["nvsa"] * 2, [3, 4])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arrival_rejected(self, bad):
        with pytest.raises(
            ServingError, match=f"request 4 has non-finite arrival time {bad}"
        ):
            RequestStream([0.0, bad, 3.0], ["nvsa"] * 3, [3, 4, 5])

    @pytest.mark.parametrize(
        "arrivals, bad_id",
        [([10**400], 0), ([0.0, 1, 10**400, 4.0], 2)],
        ids=("alone", "among-finite"),
    )
    def test_arrival_beyond_float_range_rejected(self, arrivals, bad_id):
        with pytest.raises(
            ServingError,
            match=f"^request {bad_id} has non-finite arrival time {10**400}$",
        ):
            RequestStream(
                arrivals, ["nvsa"] * len(arrivals), range(len(arrivals))
            )

    def test_column_lengths_must_match(self):
        with pytest.raises(ServingError, match="differ in length"):
            RequestStream([0.0, 1.0], ["nvsa"], [0, 1])

    def test_empty_stream_is_falsy(self):
        stream = RequestStream([], [], [])
        assert not stream
        assert len(stream) == 0
        assert stream == []

    def test_indexing(self):
        stream = self._stream()
        assert stream[0] == Request(3, "nvsa", 0.0)
        assert stream[-1] == Request(8, "nvsa", 2.0)
        assert stream[-4] == stream[0]
        assert stream[1:3] == [Request(4, "lvrf", 0.5), Request(7, "prae", 0.5)]
        for index in (4, -5):
            with pytest.raises(IndexError):
                stream[index]

    def test_iteration_equals_the_materialized_list(self):
        stream = self._stream()
        materialized = [stream[index] for index in range(len(stream))]
        assert list(stream) == materialized
        assert list(reversed(stream)) == materialized[::-1]

    def test_equality_with_lists_and_streams(self):
        stream = self._stream()
        as_list = list(stream)
        assert stream == as_list and as_list == stream
        assert stream == self._stream()
        assert stream != as_list[:-1] and as_list[:-1] != stream
        shifted = RequestStream([0.0, 0.5, 0.5, 2.5], stream.workloads, stream.ids)
        assert stream != shifted
        assert stream != tuple(as_list)
        assert "RequestStream(4 requests)" == repr(stream)

    def test_generated_stream_is_a_request_stream(self):
        stream = PoissonArrivals(200.0, WorkloadMix.uniform()).generate(
            1.0, seed=2, start_id=5
        )
        assert isinstance(stream, RequestStream)
        assert stream.ids == tuple(range(5, 5 + len(stream)))


class TestWorkloadMix:
    def test_uniform_covers_all_registered_workloads(self):
        mix = WorkloadMix.uniform()
        assert mix.names == ("lvrf", "mimonet", "nvsa", "prae")
        assert sum(mix.probabilities) == pytest.approx(1.0)

    def test_weights_are_normalised(self):
        mix = WorkloadMix({"nvsa": 3.0, "mimonet": 1.0})
        assert dict(zip(mix.names, mix.probabilities)) == {
            "mimonet": 0.25,
            "nvsa": 0.75,
        }

    @pytest.mark.parametrize(
        "weights",
        [
            {},
            {"bogus": 1.0},
            {"nvsa": -1.0},
            {"nvsa": 0.0},
            {"nvsa": math.nan, "lvrf": 1.0},
            {"nvsa": math.inf, "lvrf": 1.0},
            {"nvsa": -math.inf, "lvrf": 1.0},
            {"nvsa": 1e308, "lvrf": 1e308},
        ],
    )
    def test_invalid_mixes_rejected(self, weights):
        with pytest.raises(ServingError):
            WorkloadMix(weights)

    def test_sample_matches_numpy_choice(self):
        # The bisection sampler must reproduce rng.choice(p=...) draw for
        # draw and consume the same randomness, so a stream that interleaves
        # samples with other draws (as the arrival processes do) is unchanged.
        mixes = [
            WorkloadMix({"nvsa": 3.0, "mimonet": 0.0, "lvrf": 1.0, "prae": 0.0}),
            WorkloadMix({"prae": 1.0}),
            WorkloadMix({"lvrf": 0.1, "mimonet": 0.2, "nvsa": 0.3, "prae": 0.4}),
        ]
        ours = np.random.default_rng(11)
        reference = np.random.default_rng(11)
        for draw in range(200_000):
            mix = mixes[draw % len(mixes)]
            expected = mix.names[reference.choice(len(mix.names), p=mix.probabilities)]
            assert mix.sample(ours) == expected
            assert ours.exponential() == reference.exponential()


class TestPoissonArrivals:
    def test_same_seed_is_identical(self):
        process = PoissonArrivals(500.0, WorkloadMix.uniform())
        first = process.generate(1.0, seed=7)
        second = process.generate(1.0, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        process = PoissonArrivals(500.0, WorkloadMix.uniform())
        assert process.generate(1.0, seed=1) != process.generate(1.0, seed=2)

    def test_stream_is_sorted_with_sequential_ids(self):
        requests = PoissonArrivals(300.0, WorkloadMix.uniform()).generate(
            1.0, seed=3, start_s=2.0, start_id=10
        )
        arrivals = [request.arrival_s for request in requests]
        assert arrivals == sorted(arrivals)
        assert all(2.0 <= arrival < 3.0 for arrival in arrivals)
        assert [request.request_id for request in requests] == list(
            range(10, 10 + len(requests))
        )

    def test_rate_is_approximately_honoured(self):
        requests = PoissonArrivals(1000.0, WorkloadMix.uniform()).generate(
            2.0, seed=11
        )
        assert 1800 <= len(requests) <= 2200

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServingError):
            PoissonArrivals(0.0, WorkloadMix.uniform())
        with pytest.raises(ServingError):
            PoissonArrivals(100.0, WorkloadMix.uniform()).generate(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, bad):
        # A NaN or infinite rate would spin the generator forever.
        with pytest.raises(ServingError, match="finite"):
            PoissonArrivals(bad, WorkloadMix.uniform())


class TestMMPPArrivals:
    def _process(self, **overrides):
        kwargs = dict(
            normal_rate_rps=100.0,
            burst_rate_rps=2000.0,
            mix=WorkloadMix.uniform(),
            mean_normal_s=0.4,
            mean_burst_s=0.2,
        )
        kwargs.update(overrides)
        return MMPPArrivals(**kwargs)

    def test_same_seed_is_identical(self):
        process = self._process()
        assert process.generate(2.0, seed=5) == process.generate(2.0, seed=5)

    def test_bursts_add_traffic_over_the_base_rate(self):
        bursty = self._process().generate(4.0, seed=9)
        plain = PoissonArrivals(100.0, WorkloadMix.uniform()).generate(4.0, seed=9)
        assert len(bursty) > len(plain) * 1.5

    def test_arrivals_stay_inside_the_window(self):
        requests = self._process().generate(1.5, seed=2, start_s=1.0)
        assert all(1.0 <= request.arrival_s < 2.5 for request in requests)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"normal_rate_rps": 0.0},
            {"burst_rate_rps": -1.0},
            {"mean_normal_s": 0.0},
            {"mean_burst_s": -0.5},
            {"normal_rate_rps": float("nan")},
            {"burst_rate_rps": float("inf")},
            {"mean_normal_s": float("inf")},
            {"mean_burst_s": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ServingError):
            self._process(**overrides)


class TestTraceArrivals:
    def test_replay_preserves_trace_order_and_clips_to_window(self):
        trace = [(0.5, "nvsa"), (0.1, "mimonet"), (2.5, "lvrf")]
        requests = TraceArrivals(trace).generate(2.0, seed=0)
        assert [(r.arrival_s, r.workload) for r in requests] == [
            (0.1, "mimonet"),
            (0.5, "nvsa"),
        ]
        assert [r.request_id for r in requests] == [0, 1]

    def test_seed_does_not_matter_for_replay(self):
        trace = [(0.1, "nvsa"), (0.2, "prae")]
        process = TraceArrivals(trace)
        assert process.generate(1.0, seed=1) == process.generate(1.0, seed=99)

    def test_invalid_traces_rejected(self):
        with pytest.raises(ServingError):
            TraceArrivals([])
        with pytest.raises(ServingError):
            TraceArrivals([(0.1, "bogus")])
        for bad in (math.nan, math.inf):
            # A NaN entry used to be dropped silently by the window filter.
            with pytest.raises(ServingError, match="finite"):
                TraceArrivals([(0.1, "nvsa"), (bad, "nvsa")])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, bad):
        # A finite trace keeps this test from hanging if the check regresses.
        process = TraceArrivals([(0.1, "nvsa")])
        with pytest.raises(ServingError, match="finite"):
            process.generate(bad)
        with pytest.raises(ServingError, match="finite"):
            process.generate(1.0, start_s=bad)


class TestConcatenateSegments:
    def test_segments_are_offset_back_to_back(self):
        mix = WorkloadMix.uniform()
        segments = [
            (PoissonArrivals(200.0, mix), 1.0),
            (PoissonArrivals(200.0, mix), 1.0),
        ]
        requests = concatenate_segments(segments, seed=4)
        arrivals = [request.arrival_s for request in requests]
        assert arrivals == sorted(arrivals)
        assert any(arrival >= 1.0 for arrival in arrivals)
        assert all(arrival < 2.0 for arrival in arrivals)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    def test_deterministic_and_seed_sensitive(self):
        mix = WorkloadMix.uniform()
        segments = [(PoissonArrivals(300.0, mix), 0.5)]
        assert concatenate_segments(segments, seed=1) == concatenate_segments(
            segments, seed=1
        )
        assert concatenate_segments(segments, seed=1) != concatenate_segments(
            segments, seed=2
        )

    def test_empty_segment_list_rejected(self):
        with pytest.raises(ServingError):
            concatenate_segments([])
