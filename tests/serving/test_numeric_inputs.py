"""Numeric input of the serving layer: one check, no bare exception.

Every scalar a caller hands the serving layer goes through
``repro.serving._checks.check_number``.  The pinned tests below are the
inputs that once escaped as ``OverflowError``, ``TypeError`` or
``ValueError`` (or were silently accepted); the fuzz feeds adversarial
values to every public constructor and entry point, and to every numeric
``repro serve`` flag, and accepts only a result or a ``ReproError``.

Values that set a run's size (scale factors, chip counts, users,
durations, rates) reach constructors at any magnitude, since those only
store them, but reach run entry points only from a small range: a valid
``duration_scale`` of ``2**63`` is a request for 2**63 times the traffic.
"""

import contextlib
import dataclasses
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ReproError, ServingError
from repro.serving import (
    ChaosTimeline,
    ContinuousBatching,
    FixedSizeBatching,
    Fleet,
    Incident,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    RequestStream,
    RoundRobinRouter,
    ScenarioSpec,
    ServingSimulator,
    SessionConfig,
    SuiteCase,
    SymbolicAffinityRouter,
    TelemetryCollector,
    TraceArrivals,
    WorkloadAffinityRouter,
    WorkloadMix,
    build_router,
    burst,
    chip_failure,
    columnar_chunks,
    concatenate_segments,
    derive_series,
    drain,
    get_scenario,
    goodput,
    mix_shift,
    per_backend_summary,
    per_workload_summary,
    percentile,
    plan_components,
    power_cap,
    profile_scenario,
    ramp,
    record_process,
    record_scenario,
    render_dashboard,
    replay_trace,
    resilience_metrics,
    run_scenario,
    run_sessions,
    run_suite,
    saturation_summary,
    steady,
    straggler,
    summarize_result,
)
from repro.serving._checks import check_number
from repro.serving.control import ControllerConfig
from repro.serving.trace import RequestTrace

HUGE = 10**400  # an int beyond float range

#: one value of every kind a numeric parameter must survive
EDGE = (
    HUGE, 2**63, math.nan, math.inf, -math.inf, True, False,
    -0.0, 0, -1, 1.5, "1", None,
)
ANY = st.sampled_from(EDGE)
#: values of parameters that are only stored: any magnitude
WIDE = st.one_of(ANY, st.floats(), st.integers())
#: size-setting values for run entry points: the edge value a run would
#: have to serve at scale is replaced by small ones
_EDGE_SMALL = [v for v in EDGE if v != 2**63]
SMALL = st.one_of(st.sampled_from(_EDGE_SMALL), st.floats(1e-3, 2e-2))
SMALL_INT = st.one_of(st.sampled_from(_EDGE_SMALL), st.integers(1, 3))
#: every edge value a strategy stands for, plus one small valid value
SWEEP = {ANY: EDGE, WIDE: EDGE, SMALL: [*_EDGE_SMALL, 0.01],
         SMALL_INT: [*_EDGE_SMALL, 2]}

MIX = WorkloadMix.uniform()
RUN = dict(duration_scale=0.01)


def _cli(argv):
    """``(exit code, stderr)`` of an in-process ``repro`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse rejects the value itself
            code = exit_.code
    return code, err.getvalue()


class TestCheckNumber:
    def test_valid_values_pass(self):
        for value, kwargs in (
            (3, dict(low=1, integer=True)),
            (0.5, dict(low=0, strict=True)),
            (0, dict(low=0)),
            (math.inf, dict(low=0, strict=True, allow_inf=True)),
            (-2.5, {}),
        ):
            assert check_number("x", value, **kwargs) is None

    @pytest.mark.parametrize(
        "value, kwargs, words",
        (
            (True, {}, "x must be a number, got True"),
            ("1", {}, "a number"),
            (None, dict(integer=True), "x must be an integer, got None"),
            (2.0, dict(integer=True), "an integer"),
            (HUGE, {}, "x must be finite, got non-finite int beyond float range"),
            (-HUGE, dict(integer=True), "non-finite"),
            (math.nan, dict(low=0, allow_inf=True), "x must be non-negative, got nan"),
            (math.inf, dict(low=0, strict=True), "positive and finite"),
            (-math.inf, dict(low=0, allow_inf=True), "non-negative, got -inf"),
            (-0.0, dict(low=0, strict=True), "positive and finite, got -0.0"),
            (0, dict(low=1, integer=True), "x must be >= 1 and finite, got 0"),
        ),
    )
    def test_invalid_values_name_the_requirement(self, value, kwargs, words):
        with pytest.raises(ServingError, match=words):
            check_number("x", value, **kwargs)


class TestPinnedReproductions:
    """Inputs that escaped as a bare exception or were silently accepted."""

    @pytest.mark.parametrize(
        "call",
        (
            lambda: TraceArrivals([(HUGE, "nvsa")]),
            lambda: WorkloadMix({"nvsa": HUGE}),
            lambda: PoissonArrivals(HUGE, MIX),
            lambda: ControllerConfig(interval_s=HUGE),
            lambda: straggler(0, HUGE, 10 * HUGE, 2.0),
            lambda: run_scenario("steady", load_scale=HUGE),
            lambda: get_scenario("steady").traffic(0, 1.0, HUGE),
        ),
        ids=(
            "trace-arrivals", "mix", "poisson", "controller", "straggler",
            "run-scenario", "traffic",
        ),
    )
    def test_int_beyond_float_range_is_non_finite(self, call):
        with pytest.raises(ServingError, match="non-finite"):
            call()

    @pytest.mark.parametrize(
        "call",
        (
            lambda: Fleet(num_chips=2.5),
            lambda: FixedSizeBatching(batch_size=2.5),
            lambda: FixedSizeBatching(batch_size=math.nan),
            lambda: Fleet(num_chips=True),
        ),
        ids=("fleet", "fixed", "fixed-nan", "fleet-bool"),
    )
    def test_counts_must_be_integers_at_construction(self, call):
        with pytest.raises(ServingError, match="integer"):
            call()

    @pytest.mark.parametrize("seed", (-1, 1.5, True, "0"))
    @pytest.mark.parametrize(
        "call",
        (
            lambda seed: PoissonArrivals(100.0, MIX).generate(0.1, seed=seed),
            lambda seed: get_scenario("steady").traffic(seed, 1.0, 0.01),
            lambda seed: run_scenario("steady", seed=seed, **RUN),
            lambda seed: run_scenario("session_surge", seed=seed, **RUN),
        ),
        ids=("generate", "traffic", "run-scenario", "sessions"),
    )
    def test_seed_is_checked_at_intake(self, call, seed):
        with pytest.raises(ServingError, match="seed must be"):
            call(seed)

    def test_cli_negative_seed_exits_2(self):
        code, err = _cli(["serve", "steady", "--seed", "-1"])
        assert code == 2
        assert "error: seed must be non-negative" in err
        assert "Traceback" not in err

    def test_request_stream_takes_ids_beyond_int64(self):
        ids = [2**63, 2**63 + 1]
        stream = RequestStream([0.0, 1.0], ["nvsa"] * 2, ids)
        assert stream.ids == tuple(ids)
        with pytest.raises(ServingError, match="near request 9223372036854775808"):
            RequestStream([0.0, 1.0], ["nvsa"] * 2, ids[::-1])
        with pytest.raises(ServingError, match="near request 9223372036854775809"):
            RequestStream([1.0, 0.0], ["nvsa"] * 2, ids)
        sim = ServingSimulator(fleet=Fleet(num_chips=1))
        streamed = sim.run_stream(
            [(stream.arrivals, stream.workloads, stream.ids)], ["nvsa"]
        )
        assert streamed.num_requests == 2
        with pytest.raises(ServingError, match="outside the int64 range"):
            sim.run(stream)

    def test_controller_budget_mapping_survives_replace(self):
        config = ControllerConfig(slo_budget_s={"nvsa": 1e-3})
        replaced = dataclasses.replace(config, slo_s=5e-3)
        assert replaced.slo_budget_s == (("nvsa", 1e-3),)
        _, result = run_scenario("steady", controller=config, **RUN)
        assert result.provenance["controller"]["policy"] == "target_util"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A small run, its trace file and a scratch directory."""
    root = tmp_path_factory.mktemp("numeric-inputs")
    trace = root / "steady.jsonl"
    record_scenario(trace, "steady", **RUN)
    _, result = run_scenario("steady", telemetry_window_s=0.01, **RUN)
    return {"root": root, "trace": trace, "result": result}


def _api_targets(env):
    """``(strategy, call)`` pairs: one numeric parameter of one entry point."""
    result, trace, out = env["result"], env["trace"], env["root"] / "out.jsonl"
    requests = [Request(0, "nvsa", 0.0), Request(1, "nvsa", 1e-4)]
    sim = ServingSimulator(fleet=Fleet(num_chips=2, router="round_robin"))
    single = ServingSimulator(fleet=Fleet(num_chips=1))
    models = ServingSimulator(fleet=Fleet(num_chips=2))._chip_models()
    process = PoissonArrivals(1000.0, MIX)
    timeline = ChaosTimeline((chip_failure(0, 0.0, 1.0),))
    controller_fields = (
        "interval_s", "warmup_s", "min_chips", "max_chips",
        "target_utilization", "deadband", "target_queue", "kp", "ki", "kd",
        "slo_s", "slo_budget_s", "batch_min", "batch_max",
        "imbalance_threshold",
    )
    session_fields = (
        "users", "turns", "sessions_per_user", "think_time_s",
        "session_gap_s", "start_spread_s",
    )
    incident_slots = (
        lambda v: Incident("straggler", v, 1.0, chip=0, multiplier=2.0),
        lambda v: Incident("chip_failure", 0.0, v, chip=0),
        lambda v: Incident("chip_failure", 0.0, 1.0, chip=v),
        lambda v: Incident("power_cap", 0.0, 1.0, multiplier=v),
        lambda v: chip_failure(v, 0.0, 1.0),
        lambda v: straggler(0, 0.0, 1.0, v),
        lambda v: power_cap(v, 1.0, 2.0),
        lambda v: ChaosTimeline.seeded(v, 2, 1.0),
        lambda v: ChaosTimeline.seeded(0, 2, v),
        lambda v: ChaosTimeline.seeded(0, 2, 1.0, mean_duration_s=v),
        lambda v: ChaosTimeline.seeded(0, 2, 1.0, multiplier=v),
        lambda v: timeline.scaled(v),
        lambda v: timeline.compile(v),
    )
    constructors = (
        lambda v: WorkloadMix({"nvsa": v, "prae": 1.0}),
        lambda v: PoissonArrivals(v, MIX),
        lambda v: MMPPArrivals(v, 1.0, MIX),
        lambda v: MMPPArrivals(1.0, v, MIX),
        lambda v: MMPPArrivals(1.0, 1.0, MIX, mean_normal_s=v),
        lambda v: MMPPArrivals(1.0, 1.0, MIX, mean_burst_s=v),
        lambda v: TraceArrivals([(v, "nvsa")]),
        lambda v: FixedSizeBatching(batch_size=v),
        lambda v: FixedSizeBatching(max_wait_s=v),
        lambda v: ContinuousBatching(max_batch_size=v),
        lambda v: ContinuousBatching(slo_s=v),
        lambda v: ContinuousBatching(slo_s={"nvsa": v}),
        lambda v: Fleet(num_chips=v),
        lambda v: SymbolicAffinityRouter(
            ["cogsys"], ["nvsa"], lambda name: 0.5, threshold=v
        ),
        lambda v: steady(v, 1.0),
        lambda v: steady(1.0, v),
        lambda v: drain(v),
        lambda v: ramp(v, 1.0, 1.0),
        lambda v: ramp(1.0, v, 1.0),
        lambda v: ramp(1.0, 1.0, 1.0, steps=v),
        lambda v: burst(v, 1.0, 1.0),
        lambda v: burst(1.0, v, 1.0),
        lambda v: burst(1.0, 1.0, 1.0, mean_normal_s=v),
        lambda v: burst(1.0, 1.0, 1.0, mean_burst_s=v),
        lambda v: mix_shift(v, 1.0, {"nvsa": 1.0}, {"prae": 1.0}),
        lambda v: mix_shift(1.0, 1.0, {"nvsa": 1.0}, {"prae": 1.0}, steps=v),
        lambda v: ScenarioSpec("x", "x", (steady(1.0, 1.0),), num_chips=v),
        lambda v: ScenarioSpec("x", "x", (steady(1.0, 1.0),), slo_s=v),
        lambda v: TelemetryCollector(v, 1, [None], ["nvsa"]),
        lambda v: SessionConfig(users=1).scaled(v, 1.0),
        lambda v: SessionConfig(users=1).scaled(1.0, v),
        *(lambda v, f=f: ControllerConfig(**{f: v}) for f in controller_fields),
        *(lambda v, f=f: SessionConfig(**{"users": 1, f: v})
          for f in session_fields),
        *incident_slots,
    )
    metric_calls = (
        lambda v: percentile([1.0, 2.0], v),
        lambda v: goodput(result.records, v, 1.0),
        lambda v: goodput(result.records, 1e-3, v),
        lambda v: summarize_result(result, v),
        lambda v: summarize_result(result, 1e-3, offered_rps=v),
        lambda v: per_workload_summary(result, v),
        lambda v: per_backend_summary(result, v),
        lambda v: resilience_metrics(result, window_s=v),
        lambda v: resilience_metrics(result, tolerance=v),
        lambda v: saturation_summary([{"load": 1, "p99_ms": 1.0}], knee_factor=v),
        lambda v: derive_series(result, v, models),
        lambda v: render_dashboard(result.telemetry, width=v),
        lambda v: list(columnar_chunks(requests, chunk_size=v)),
        lambda v: list(RequestTrace(trace).iter_chunks(v)),
    )
    # parameters that set how much work a call does: chip counts that size
    # a loop or a table, and the arguments of run entry points
    sized = (
        (SMALL_INT, lambda v: ChaosTimeline.seeded(0, v, 1.0)),
        (SMALL_INT, lambda v: WorkloadAffinityRouter(v, ["nvsa"])),
        (SMALL_INT, lambda v: build_router("affinity", v, ["nvsa"])),
        (SMALL_INT, lambda v: TelemetryCollector(0.01, v, [None], ["nvsa"])),
        (SMALL_INT, lambda v: plan_components(RoundRobinRouter(), v)),
        (ANY, lambda v: process.generate(0.01, seed=v)),
        (ANY, lambda v: process.generate(0.01, start_s=v)),
        (ANY, lambda v: process.generate(0.01, start_id=v)),
        (SMALL, lambda v: process.generate(v)),
        (ANY, lambda v: concatenate_segments([(process, 0.01)], seed=v)),
        (ANY, lambda v: get_scenario("steady").traffic(v, 1.0, 0.01)),
        (SMALL, lambda v: get_scenario("steady").traffic(0, v, 0.01)),
        (SMALL, lambda v: get_scenario("steady").traffic(0, 1.0, v)),
        (ANY, lambda v: run_scenario("steady", seed=v, **RUN)),
        (SMALL, lambda v: run_scenario("steady", load_scale=v, **RUN)),
        (SMALL, lambda v: run_scenario("steady", duration_scale=v)),
        (SMALL_INT, lambda v: run_scenario("steady", num_chips=v, **RUN)),
        (ANY, lambda v: run_scenario("steady", shards=v, **RUN)),
        (ANY, lambda v: run_scenario(
            "steady", shards=2, shard_workers=v, **RUN)),
        (ANY, lambda v: run_scenario("steady", telemetry_window_s=v, **RUN)),
        (SMALL, lambda v: run_scenario("session_surge", load_scale=v, **RUN)),
        (ANY, lambda v: sim.run(requests, shards=v, shard_workers=1)),
        (ANY, lambda v: sim.run(requests, telemetry_window_s=v)),
        (ANY, lambda v: sim.run_stream(
            columnar_chunks(requests), ["nvsa"], shards=v, shard_workers=1)),
        (ANY, lambda v: sim.run_stream(
            columnar_chunks(requests), ["nvsa"], telemetry_window_s=v)),
        (ANY, lambda v: run_sessions(single, SessionConfig(users=2), seed=v)),
        (ANY, lambda v: record_scenario(out, "steady", seed=v, **RUN)),
        (SMALL, lambda v: record_scenario(out, "steady", load_scale=v, **RUN)),
        (SMALL, lambda v: record_process(out, process, v)),
        (ANY, lambda v: record_process(out, process, 0.01, seed=v)),
        (ANY, lambda v: record_process(out, process, 0.01, window_s=v)),
        (SMALL_INT, lambda v: replay_trace(trace, num_chips=v)),
        (ANY, lambda v: replay_trace(trace, chunk_size=v)),
        (ANY, lambda v: replay_trace(trace, shards=v, shard_workers=1)),
        (ANY, lambda v: replay_trace(trace, telemetry_window_s=v)),
        (ANY, lambda v: profile_scenario("steady", seed=v, **RUN)),
        (SMALL, lambda v: profile_scenario("steady", load_scale=v, **RUN)),
        (SMALL_INT, lambda v: profile_scenario("steady", num_chips=v, **RUN)),
        (ANY, lambda v: run_suite([SuiteCase("steady", **RUN)], jobs=v)),
        (ANY, lambda v: run_suite([SuiteCase("steady", seed=v, **RUN)])),
    )
    return _Targets(
        [(WIDE, call) for call in constructors + metric_calls] + list(sized)
    )


class _Targets(list):
    """The fuzz targets, shown briefly in Hypothesis's reports."""

    def __repr__(self) -> str:
        return f"<{len(self)} targets>"


#: ``(flag, value strategy, argv before the flag)`` of every numeric
#: ``repro serve`` flag, each in a mode that reads it
_SCENARIO = ["serve", "steady", "--duration-scale", "0.01"]
_CLI_FLAGS = (
    ("--seed", ANY, _SCENARIO),
    ("--load-scale", SMALL, _SCENARIO),
    ("--duration-scale", SMALL, ["serve", "steady"]),
    ("--chips", SMALL_INT, _SCENARIO),
    ("--users", SMALL_INT, [*_SCENARIO, "--sessions"]),
    ("--control-interval-ms", ANY, [*_SCENARIO, "--controller", "queue_pid"]),
    ("--shards", ANY, _SCENARIO),
    ("--shard-workers", ANY, [*_SCENARIO, "--shards", "2"]),
    ("--jobs", ANY, _SCENARIO),
    ("--window-ms", ANY, [*_SCENARIO, "--dashboard"]),
    ("--slo-ms", ANY, ["serve", "--trace", "TRACE"]),
    ("--chunk-size", ANY, ["serve", "--trace", "TRACE"]),
)


def _serve(served, before, flag, value):
    """``(exit code, stderr)`` of ``before + [flag, value]``."""
    argv = [str(served["trace"]) if arg == "TRACE" else arg for arg in before]
    return _cli([*argv, flag, value])


@pytest.fixture(scope="module")
def api_targets(served):
    return _api_targets(served)


def _escapes(call, value) -> list:
    """``[(line, value, error)]`` if ``call(value)`` raises a non-ReproError.

    ``line`` is where ``call`` is written in this file.
    """
    try:
        call(value)
    except ReproError:
        pass
    except Exception as error:  # what the fuzz looks for
        return [(call.__code__.co_firstlineno, value, error)]
    return []


def test_every_edge_value_reaches_every_parameter(api_targets):
    escaped = [
        escape
        for strategy, call in api_targets
        for value in SWEEP[strategy]
        for escape in _escapes(call, value)
    ]
    assert not escaped


def test_every_edge_value_reaches_every_serve_flag(served):
    bad = [
        (flag, value, code, err)
        for flag, strategy, before in _CLI_FLAGS
        for value in map(str, SWEEP[strategy])
        for code, err in [_serve(served, before, flag, value)]
        if code not in (0, 2) or "Traceback" in err
    ]
    assert not bad


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_no_numeric_input_escapes_as_a_bare_exception(api_targets, data):
    strategy, call = api_targets[
        data.draw(st.integers(0, len(api_targets) - 1), label="target")
    ]
    value = data.draw(strategy, label="value")
    assert not _escapes(call, value)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_numeric_serve_flags_exit_0_or_2(served, data):
    flag, strategy, before = data.draw(st.sampled_from(_CLI_FLAGS))
    value = str(data.draw(strategy))
    code, err = _serve(served, before, flag, value)
    assert code in (0, 2), (flag, value, code, err)
    assert "Traceback" not in err
