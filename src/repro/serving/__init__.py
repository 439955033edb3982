"""Request-level serving simulator on top of the CogSys cycle model.

The paper evaluates single-query latency on one accelerator; this package
asks the production question — what happens under *traffic*.  It layers a
deterministic discrete-event simulator over the cycle-level
:class:`~repro.hardware.accelerator.CogSysAccelerator` model:

* :mod:`~repro.serving.traffic` — seeded arrival processes (Poisson,
  bursty MMPP, trace replay) over the four registered workloads,
* :mod:`~repro.serving.batching` — batching policies that amortize
  per-kernel dispatch across same-workload requests,
* :mod:`~repro.serving.fleet` — multi-chip (optionally heterogeneous)
  fleets with routing policies and shared per-``(workload, batch)``
  backend report caches,
* :mod:`~repro.serving.simulator` — the high-throughput event core:
  index-based arrivals over columnar chunks, slot-keyed chip queues and a
  hoisted service-time table, producing per-request latency traces (or
  bounded-memory streamed aggregates), utilization and energy,
* :mod:`~repro.serving.trace` — JSONL request traces: record any
  generator or scenario, replay deterministically in streaming chunks,
* :mod:`~repro.serving.dsl` — the scenario DSL (steady/ramp/burst/drain/
  mix-shift phases composed into :class:`~repro.serving.dsl.ScenarioSpec`),
* :mod:`~repro.serving.chaos` — trace-replayable incident timelines
  (chip fail/recover, straggler multipliers, power-cap windows) injected
  as deterministic events into the event core (``repro serve --chaos``),
* :mod:`~repro.serving.sessions` — closed-loop session traffic: a fixed
  user population with think-time loops and multi-turn conversations, so
  offered load responds to observed latency (``repro serve --sessions``),
* :mod:`~repro.serving.metrics` — tail latency, goodput under SLO,
  saturation summaries and resilience accounting (losses, tail
  inflation, recovery time) over full-trace or streamed results,
* :mod:`~repro.serving.scenarios` — DSL-defined presets (steady, diurnal,
  flash-crowd, mixed-workload, ramp-surge, chip-outage, straggler-storm,
  session-surge) runnable via ``repro serve``,
* :mod:`~repro.serving.sharding` — component-sharded execution: factor a
  router-independent fleet into per-shard simulations whose merged result
  is byte-identical to the single-shard run,
* :mod:`~repro.serving.suite` — parallel suite runner: fan independent
  (scenario, config) cases across a persistent process pool with
  pre-warmed service tables (``repro serve --jobs N``),
* :mod:`~repro.serving.profile` — per-phase wall-clock breakdown of one
  scenario run (``repro serve --profile``),
* :mod:`~repro.serving.telemetry` — windowed time-series telemetry
  (queue depth, utilization, windowed tail latency, energy/window) and
  per-request lifecycle spans, byte-identical across the full-trace,
  streamed and sharded paths,
* :mod:`~repro.serving.exporters` — JSONL / Prometheus-text exports and
  the terminal sparkline dashboard over a telemetry series.
"""

from repro.serving.batching import (
    BATCHING_POLICIES,
    Batch,
    BatchDecision,
    BatchingPolicy,
    ContinuousBatching,
    FixedSizeBatching,
    NoBatching,
    build_policy,
)
from repro.serving.chaos import (
    ChaosTimeline,
    Incident,
    chip_failure,
    power_cap,
    straggler,
)
from repro.serving.fleet import (
    ROUTERS,
    Fleet,
    FleetServiceModel,
    JoinShortestQueueRouter,
    RoundRobinRouter,
    Router,
    SymbolicAffinityRouter,
    WorkloadAffinityRouter,
    build_router,
)
from repro.serving.metrics import (
    goodput,
    latency_summary,
    per_backend_summary,
    per_workload_summary,
    percentile,
    queueing_summary,
    resilience_metrics,
    saturation_summary,
    summarize_result,
)
from repro.serving.sessions import SessionConfig, run_sessions
from repro.serving.exporters import (
    render_dashboard,
    to_prometheus,
    write_jsonl,
    write_spans_jsonl,
)
from repro.serving.telemetry import (
    DEFAULT_WINDOW_S,
    SPAN_FIELDS,
    TELEMETRY_FIELDS,
    TelemetryCollector,
    TelemetrySeries,
    derive_series,
    request_spans,
)
from repro.serving.dsl import (
    Phase,
    ScenarioSpec,
    burst,
    drain,
    mix_shift,
    ramp,
    steady,
)
from repro.serving.profile import profile_scenario
from repro.serving.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.serving.sharding import plan_components
from repro.serving.simulator import (
    RecordTable,
    RequestRecord,
    ServingResult,
    ServingSimulator,
    StreamedServingResult,
    columnar_chunks,
    request_columns,
)
from repro.serving.suite import (
    SuiteCase,
    SuiteResult,
    run_suite,
)
from repro.serving.trace import (
    RequestTrace,
    TraceInfo,
    record_process,
    record_scenario,
    replay_trace,
    write_trace,
)
from repro.serving.traffic import (
    ArrivalProcess,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    RequestStream,
    TraceArrivals,
    WorkloadMix,
    concatenate_segments,
)

__all__ = [
    "Request",
    "RequestStream",
    "WorkloadMix",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "TraceArrivals",
    "concatenate_segments",
    "Batch",
    "BatchDecision",
    "BatchingPolicy",
    "NoBatching",
    "FixedSizeBatching",
    "ContinuousBatching",
    "BATCHING_POLICIES",
    "build_policy",
    "FleetServiceModel",
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "WorkloadAffinityRouter",
    "SymbolicAffinityRouter",
    "ROUTERS",
    "build_router",
    "Fleet",
    "RecordTable",
    "RequestRecord",
    "ServingResult",
    "StreamedServingResult",
    "ServingSimulator",
    "columnar_chunks",
    "request_columns",
    "RequestTrace",
    "TraceInfo",
    "write_trace",
    "record_process",
    "record_scenario",
    "replay_trace",
    "Phase",
    "ScenarioSpec",
    "steady",
    "ramp",
    "burst",
    "drain",
    "mix_shift",
    "percentile",
    "latency_summary",
    "queueing_summary",
    "goodput",
    "summarize_result",
    "resilience_metrics",
    "per_workload_summary",
    "per_backend_summary",
    "saturation_summary",
    "Incident",
    "ChaosTimeline",
    "chip_failure",
    "straggler",
    "power_cap",
    "SessionConfig",
    "run_sessions",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "plan_components",
    "SuiteCase",
    "SuiteResult",
    "run_suite",
    "profile_scenario",
    "DEFAULT_WINDOW_S",
    "TELEMETRY_FIELDS",
    "SPAN_FIELDS",
    "TelemetrySeries",
    "TelemetryCollector",
    "derive_series",
    "request_spans",
    "write_jsonl",
    "write_spans_jsonl",
    "to_prometheus",
    "render_dashboard",
]
