"""Equality gate: generated traffic must match the plain object-list generators.

The ``_reference_*`` functions are the straightforward generators: each
arrival process appends one frozen :class:`Request` per arrival,
``generate`` sorts the list by ``(arrival_s, request_id)``, and segment
chaining extends one list.  Every stream the library generates must equal
its reference request for request, arrival floats bit for bit, and each
serving intake (``run``, ``run_controlled``, sharded ``run``) must return
equal results whether it is handed a generated stream or the same
requests as a plain list.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.batching import ContinuousBatching
from repro.serving.control import ControllerConfig, run_controlled
from repro.serving.fleet import Fleet
from repro.serving.scenarios import SCENARIOS, get_scenario
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import record_process, write_trace
from repro.serving.traffic import (
    SEED_STRIDE,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    TraceArrivals,
    WorkloadMix,
    concatenate_segments,
)


def _reference_poisson(process, duration_s, rng, start_s, start_id):
    requests = []
    clock = start_s
    horizon = start_s + duration_s
    while True:
        clock += rng.exponential(1.0 / process.rate_rps)
        if clock >= horizon:
            return requests
        requests.append(
            Request(start_id + len(requests), process.mix.sample(rng), clock)
        )


def _reference_mmpp(process, duration_s, rng, start_s, start_id):
    requests = []
    clock = start_s
    horizon = start_s + duration_s
    in_burst = False
    while clock < horizon:
        mean_dwell = process.mean_burst_s if in_burst else process.mean_normal_s
        rate = process.burst_rate_rps if in_burst else process.normal_rate_rps
        dwell_end = min(horizon, clock + rng.exponential(mean_dwell))
        arrival = clock
        while True:
            arrival += rng.exponential(1.0 / rate)
            if arrival >= dwell_end:
                break
            requests.append(
                Request(start_id + len(requests), process.mix.sample(rng), arrival)
            )
        clock = dwell_end
        in_burst = not in_burst
    return requests


def _reference_trace(process, duration_s, rng, start_s, start_id):
    horizon = start_s + duration_s
    return [
        Request(start_id + index, workload, arrival)
        for index, (arrival, workload) in enumerate(
            (t, w) for t, w in process.trace if start_s <= t < horizon
        )
    ]


_REFERENCE_GENERATORS = {
    PoissonArrivals: _reference_poisson,
    MMPPArrivals: _reference_mmpp,
    TraceArrivals: _reference_trace,
}


def _reference_generate(process, duration_s, seed=0, start_s=0.0, start_id=0):
    rng = np.random.default_rng(seed)
    requests = _REFERENCE_GENERATORS[type(process)](
        process, duration_s, rng, start_s, start_id
    )
    return sorted(requests, key=lambda r: (r.arrival_s, r.request_id))


def _reference_concatenate(segments, seed=0):
    requests = []
    offset = 0.0
    for index, (process, duration_s) in enumerate(segments):
        requests.extend(
            _reference_generate(
                process,
                duration_s,
                seed=seed * SEED_STRIDE + index,
                start_s=offset,
                start_id=len(requests),
            )
        )
        offset += duration_s
    return requests


def _reference_build_traffic(spec, seed, load_scale, duration_scale):
    segments = []
    for phase in spec.phases:
        segments.extend(phase.segments(load_scale, duration_scale))
    single = len(segments) == 1
    requests = []
    offset = 0.0
    for index, (process, duration) in enumerate(segments):
        if process is not None:
            requests.extend(
                _reference_generate(
                    process,
                    duration,
                    seed=seed if single else seed * SEED_STRIDE + index,
                    start_s=offset,
                    start_id=len(requests),
                )
            )
        offset += duration
    return requests


def _assert_same_stream(stream, reference):
    """Equal requests in equal order, with plain ``int``/``float`` fields."""
    assert len(stream) == len(reference)
    assert list(stream) == reference
    assert all(
        type(r.request_id) is int and type(r.arrival_s) is float
        for r in stream
    )


#: every open-loop preset (closed-loop session presets have no traffic)
OPEN_LOOP_PRESETS = tuple(
    name for name, scenario in SCENARIOS.items() if scenario.sessions is None
)
SEEDS = (0, 1, 7)
#: (load_scale, duration_scale) pairs
SCALES = ((1.0, 0.5), (3.0, 0.25), (0.5, 1.0))

MIX = WorkloadMix({"nvsa": 0.4, "mimonet": 0.3, "lvrf": 0.2, "prae": 0.1})
PROCESSES = {
    "poisson": PoissonArrivals(900.0, MIX),
    "mmpp": MMPPArrivals(200.0, 3000.0, MIX, mean_normal_s=0.2,
                         mean_burst_s=0.05),
    "trace": TraceArrivals(
        [(0.37 * (i % 11) + 0.001 * i, MIX.names[i % 4]) for i in range(400)]
    ),
}


class TestGeneratorsMatchReference:
    @pytest.mark.parametrize("scales", SCALES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", OPEN_LOOP_PRESETS)
    def test_preset_traffic(self, name, seed, scales):
        scenario = get_scenario(name)
        load_scale, duration_scale = scales
        _assert_same_stream(
            scenario.traffic(seed, load_scale, duration_scale),
            _reference_build_traffic(
                scenario.spec, seed, load_scale, duration_scale
            ),
        )

    @pytest.mark.parametrize("window", ((0.0, 0), (1.25, 40), (3.0, 7)))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", sorted(PROCESSES))
    def test_process_windows(self, kind, seed, window):
        start_s, start_id = window
        process = PROCESSES[kind]
        _assert_same_stream(
            process.generate(0.8, seed=seed, start_s=start_s, start_id=start_id),
            _reference_generate(
                process, 0.8, seed=seed, start_s=start_s, start_id=start_id
            ),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concatenated_segments(self, seed):
        segments = [
            (PROCESSES["poisson"], 0.4),
            (PROCESSES["mmpp"], 0.7),
            (PROCESSES["trace"], 2.0),
            (PROCESSES["poisson"], 0.3),
        ]
        _assert_same_stream(
            concatenate_segments(segments, seed=seed),
            _reference_concatenate(segments, seed=seed),
        )

    @pytest.mark.parametrize("window_s", (None, 0.15, 0.4))
    @pytest.mark.parametrize("kind", ("poisson", "mmpp"))
    def test_recorded_trace_bytes(self, tmp_path, kind, window_s):
        process = PROCESSES[kind]
        duration_s, seed = 1.0, 3
        record_process(
            tmp_path / "ours.jsonl", process, duration_s, seed=seed,
            window_s=window_s,
        )
        if window_s is None:
            stream = _reference_generate(process, duration_s, seed=seed)
        else:
            stream = []
            offset, window = 0.0, 0
            while offset < duration_s:
                span = min(window_s, duration_s - offset)
                stream.extend(_reference_generate(
                    process, span, seed=seed * SEED_STRIDE + window,
                    start_s=offset, start_id=len(stream),
                ))
                offset += span
                window += 1
        provenance = {
            "process": type(process).__name__,
            "duration_s": duration_s,
            "seed": seed,
            **({"window_s": window_s} if window_s is not None else {}),
        }
        write_trace(tmp_path / "reference.jsonl", stream, source=provenance)
        assert (tmp_path / "ours.jsonl").read_bytes() == (
            tmp_path / "reference.jsonl"
        ).read_bytes()


class _FakeModel:
    """Sub-millisecond linear service model, so runs stay instant."""

    scheduler = "fake"
    cached_reports = 0
    base = {"nvsa": 6e-4, "mimonet": 2e-4, "lvrf": 5e-4, "prae": 4e-4}

    def service_seconds(self, workload, batch_size):
        return self.base[workload] * (0.5 + 0.5 * batch_size)

    def energy_joules(self, workload, batch_size):
        return self.service_seconds(workload, batch_size)


def _simulator(router):
    return ServingSimulator(
        service_model=_FakeModel(),
        fleet=Fleet(num_chips=2, router=router),
        batching_policy=ContinuousBatching(max_batch_size=8),
    )


@pytest.fixture(scope="module", params=("steady", "flash_crowd"))
def stream(request):
    return get_scenario(request.param).traffic(1, 1.0, 0.5)


class TestIntakesAgreeOnStreamAndList:
    @pytest.mark.parametrize("router", ("jsq", "round_robin"))
    def test_run(self, stream, router):
        assert _simulator(router).run(stream) == _simulator(router).run(
            list(stream)
        )

    def test_run_controlled(self, stream):
        config = ControllerConfig(slo_s=0.005, max_chips=4)
        from_stream = run_controlled(_simulator("jsq"), config, stream)
        from_list = run_controlled(_simulator("jsq"), config, list(stream))
        assert from_stream == from_list

    def test_run_sharded(self, stream):
        from_stream = _simulator("round_robin").run(stream, shards=2)
        from_list = _simulator("round_robin").run(list(stream), shards=2)
        assert from_stream.provenance["shards_effective"] == 2
        assert from_stream == from_list
