"""Serving-scale experiment drivers: traffic, batching and fleet scale-out.

These drivers extend the paper's single-query evaluation to the request
level: every row comes from a deterministic discrete-event simulation
(:mod:`repro.serving`) whose per-batch service times are backend execution
reports, memoized per ``(workload, batch size)`` so full sweeps finish in
seconds.  Five experiment families are registered:

* ``serve_load`` — per-workload latency versus offered load,
* ``serve_batch`` — batching-policy comparison under heavy mixed traffic,
* ``serve_fleet`` — fleet scaling efficiency across routing policies,
* ``serve_scenarios`` — SLO matrix over the named scenario presets,
* ``serve_hetero`` — mixed CogSys + GPU/edge fleet with symbolic-affinity
  routing and per-backend utilization,
* ``serve_trace`` — record each scenario's traffic to a JSONL trace, then
  replay it through the streaming event core and prove the streamed
  metrics match the in-memory run,
* ``serve_chaos`` — resilience matrix over the chaos presets: incident
  counts, conservation (arrived == completed + lost + shed), tail
  inflation and recovery time per scenario,
* ``serve_control`` — SLO-attainment versus provisioned-capacity
  frontier: the cheapest static fleet meeting each scenario's p99 SLO
  against the closed-loop controller's peak provisioning under the same
  traffic, per autoscaler policy.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.backends import ExecutionCache
from repro.errors import ServingError
from repro.serving.batching import build_policy
from repro.serving.fleet import Fleet, FleetServiceModel
from repro.serving.metrics import (
    per_backend_summary,
    resilience_metrics,
    summarize_result,
)
from repro.serving.scenarios import get_scenario, run_scenario
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import RequestTrace, record_scenario, replay_trace
from repro.serving.traffic import PoissonArrivals, WorkloadMix
from repro.workloads.registry import WORKLOAD_BUILDERS

__all__ = [
    "latency_load_sweep",
    "batching_policy_comparison",
    "fleet_scaling",
    "scenario_slo_matrix",
    "heterogeneous_fleet",
    "trace_replay_matrix",
    "chaos_resilience_matrix",
    "control_frontier",
]

#: every registered workload, in stable (alphabetical) order
SERVING_WORKLOADS = tuple(sorted(WORKLOAD_BUILDERS))


def _poisson_requests(rate_rps: float, count: int, mix: WorkloadMix, seed: int):
    """~``count`` Poisson arrivals at ``rate_rps`` (duration = count / rate)."""
    if count < 1:
        raise ServingError(f"request count must be positive, got {count}")
    return PoissonArrivals(rate_rps, mix).generate(count / rate_rps, seed=seed)


def _mean_unbatched_service_s(model: ExecutionCache, mix: WorkloadMix):
    """Mix-weighted batch-1 service time — the load=1.0 calibration point."""
    return sum(
        probability * model.service_seconds(name, 1)
        for name, probability in zip(mix.names, mix.probabilities)
    )


def latency_load_sweep(
    workloads: tuple[str, ...] = SERVING_WORKLOADS,
    loads: tuple[float, ...] = (0.2, 0.5, 0.8, 1.1, 1.5),
    requests_per_point: int = 200,
    max_batch_size: int = 8,
    num_chips: int = 1,
    slo_ms: float = 5.0,
    seed: int = 0,
) -> list[dict]:
    """Latency versus offered load, per workload.

    ``load`` is offered traffic relative to the chip's *unbatched* capacity
    (``num_chips / batch-1 service time``), so loads above 1.0 are only
    sustainable through batching amortization — the sweep shows where each
    workload saturates and how hard the tail blows up past the knee.
    """
    model = ExecutionCache()
    rows = []
    for workload in workloads:
        service_1 = model.service_seconds(workload, 1)
        for load in loads:
            if load <= 0:
                raise ServingError(f"loads must be positive, got {load}")
            rate = load * num_chips / service_1
            requests = _poisson_requests(
                rate, requests_per_point, WorkloadMix({workload: 1.0}), seed
            )
            simulator = ServingSimulator(
                service_model=model,
                fleet=Fleet(num_chips=num_chips, router="jsq"),
                batching_policy=build_policy(
                    "continuous", max_batch_size=max_batch_size, slo_s=slo_ms * 1e-3
                ),
            )
            result = simulator.run(requests)
            rows.append(
                {
                    "workload": workload,
                    "load": load,
                    **summarize_result(result, slo_ms * 1e-3, offered_rps=rate),
                }
            )
    return rows


def batching_policy_comparison(
    policies: tuple[str, ...] = ("none", "fixed", "continuous"),
    load: float = 1.1,
    requests: int = 600,
    num_chips: int = 2,
    batch_size: int = 8,
    slo_ms: float = 5.0,
    seed: int = 0,
) -> list[dict]:
    """No-batch versus fixed-size versus continuous batching, same traffic.

    All policies face the identical (seeded) mixed request stream at a load
    past the unbatched capacity, so the no-batch baseline saturates while
    batched policies amortize kernel dispatch and survive — the serving
    analogue of the paper's kernel-launch-overhead observation.
    """
    model = ExecutionCache()
    mix = WorkloadMix.uniform(SERVING_WORKLOADS)
    slo_s = slo_ms * 1e-3
    rate = load * num_chips / _mean_unbatched_service_s(model, mix)
    stream = _poisson_requests(rate, requests, mix, seed)
    policy_kwargs = {
        "none": {},
        "fixed": {"batch_size": batch_size, "max_wait_s": slo_s / 4},
        "continuous": {"max_batch_size": batch_size, "slo_s": slo_s},
    }
    rows = []
    for name in policies:
        simulator = ServingSimulator(
            service_model=model,
            fleet=Fleet(num_chips=num_chips, router="jsq"),
            batching_policy=build_policy(name, **policy_kwargs.get(name, {})),
        )
        result = simulator.run(stream)
        rows.append(
            {
                "policy": name,
                **summarize_result(result, slo_s, offered_rps=rate),
            }
        )
    return rows


def fleet_scaling(
    chip_counts: tuple[int, ...] = (1, 2, 4, 8),
    routers: tuple[str, ...] = ("round_robin", "jsq", "affinity"),
    load_per_chip: float = 0.8,
    requests_per_chip: int = 250,
    max_batch_size: int = 8,
    slo_ms: float = 5.0,
    seed: int = 0,
) -> list[dict]:
    """Scale-out efficiency: offered load grows proportionally with chips.

    ``efficiency`` is goodput per chip normalized to the smallest fleet of
    the same router — 1.0 means perfect linear scaling.  Load-aware routing
    (JSQ) should hold efficiency near 1.0 while round-robin leaks tail
    latency to unlucky queues and affinity trades balance for homogeneous
    per-chip batches.
    """
    model = ExecutionCache()
    mix = WorkloadMix.uniform(SERVING_WORKLOADS)
    slo_s = slo_ms * 1e-3
    service = _mean_unbatched_service_s(model, mix)
    rows = []
    for router in routers:
        base_goodput_per_chip = None
        for num_chips in sorted(chip_counts):
            rate = load_per_chip * num_chips / service
            stream = _poisson_requests(
                rate, requests_per_chip * num_chips, mix, seed
            )
            simulator = ServingSimulator(
                service_model=model,
                fleet=Fleet(num_chips=num_chips, router=router),
                batching_policy=build_policy(
                    "continuous", max_batch_size=max_batch_size, slo_s=slo_s
                ),
            )
            result = simulator.run(stream)
            summary = summarize_result(result, slo_s, offered_rps=rate)
            goodput_per_chip = summary["goodput_rps"] / num_chips
            if base_goodput_per_chip is None:
                base_goodput_per_chip = goodput_per_chip
            efficiency = (
                round(goodput_per_chip / base_goodput_per_chip, 4)
                if base_goodput_per_chip
                else 0.0
            )
            rows.append({"router": router, "efficiency": efficiency, **summary})
    return rows


def scenario_slo_matrix(
    scenarios: tuple[str, ...] = (
        "steady",
        "diurnal",
        "flash_crowd",
        "mixed_workload",
    ),
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
) -> list[dict]:
    """Goodput/SLO matrix over the named scenario presets.

    One accelerator model is shared across scenarios, so the memoized
    reports make the whole matrix a single pass of cheap event loops.
    """
    model = ExecutionCache()
    rows = []
    for name in scenarios:
        scenario, result = run_scenario(
            name,
            seed=seed,
            load_scale=load_scale,
            duration_scale=duration_scale,
            service_model=model,
        )
        rows.append(
            {
                "scenario": scenario.name,
                "router": scenario.router,
                "policy": scenario.policy,
                **summarize_result(result, scenario.slo_s),
            }
        )
    return rows


def heterogeneous_fleet(
    backends: tuple[str, ...] = ("cogsys", "cogsys", "a100", "xavier_nx"),
    scenario: str = "mixed_workload",
    router: str = "symbolic_affinity",
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
    slo_ms: float | None = None,
) -> list[dict]:
    """Mixed-backend fleet under a scenario preset, with per-backend rows.

    One chip per ``backends`` entry serves the scenario's traffic; the
    symbolic-affinity router sends symbolic-heavy workloads to the CogSys
    chips and neural-heavy ones to the GPU/edge chips.  The first row
    (``backend="(fleet)"``) aggregates the whole fleet, the rest break
    utilization, latency and goodput down per backend — idle pools show up
    as zero-utilization rows instead of disappearing.
    """
    if not backends:
        raise ServingError("heterogeneous_fleet needs at least one backend")
    preset, result = run_scenario(
        scenario,
        seed=seed,
        load_scale=load_scale,
        duration_scale=duration_scale,
        router=router,
        backends=tuple(backends),
    )
    slo_s = preset.slo_s if slo_ms is None else slo_ms * 1e-3
    overall = summarize_result(result, slo_s)
    by_backend = per_backend_summary(result, slo_s)
    # Derive the fleet row's metric columns from the per-backend schema so
    # the two row shapes cannot drift apart.
    metric_keys = [
        key
        for key in by_backend[0]
        if key not in ("backend", "chips", "requests", "request_share")
    ]
    fleet_row = {
        "backend": "(fleet)",
        "chips": result.num_chips,
        "requests": overall["requests"],
        "request_share": 1.0,
        **{key: overall[key] for key in metric_keys},
    }
    return [fleet_row, *by_backend]


def trace_replay_matrix(
    scenarios: tuple[str, ...] = (
        "steady",
        "diurnal",
        "flash_crowd",
        "mixed_workload",
    ),
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
    chunk_size: int = 4096,
) -> list[dict]:
    """Record, replay and cross-check each scenario as a request trace.

    For every scenario the driver (1) records the preset's traffic to a
    JSONL trace, (2) replays it through the streaming event core
    (``run_stream`` over columnar chunks) on the scenario's own fleet, and
    (3) runs the identical requests through the full in-memory simulator.
    ``stream_matches_memory`` asserts the two paths agree on every summary
    metric — the differential guarantee that bounded-memory replay does
    not change semantics.  All columns are deterministic in ``seed``.
    """
    if chunk_size < 1:
        raise ServingError(f"chunk_size must be positive, got {chunk_size}")
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-trace-") as tmp:
        for name in scenarios:
            scenario = get_scenario(name)
            path = Path(tmp) / f"{name}.jsonl"
            info = record_scenario(
                path,
                name,
                seed=seed,
                load_scale=load_scale,
                duration_scale=duration_scale,
            )
            fleet = Fleet(num_chips=scenario.num_chips, router=scenario.router)
            model = FleetServiceModel(fleet=fleet)
            streamed = replay_trace(
                path,
                num_chips=scenario.num_chips,
                router=scenario.router,
                policy=scenario.policy,
                service_model=model,
                chunk_size=chunk_size,
            )
            simulator = ServingSimulator(
                service_model=model,
                fleet=fleet,
                batching_policy=build_policy(scenario.policy),
            )
            in_memory = simulator.run(RequestTrace(path).requests())
            streamed_summary = summarize_result(streamed, scenario.slo_s)
            memory_summary = summarize_result(in_memory, scenario.slo_s)
            rows.append(
                {
                    "scenario": name,
                    "trace_requests": info.num_requests,
                    "chunks": -(-info.num_requests // chunk_size),
                    "stream_matches_memory": streamed_summary == memory_summary,
                    **streamed_summary,
                }
            )
    return rows


def chaos_resilience_matrix(
    scenarios: tuple[str, ...] = (
        "chip_outage",
        "straggler_storm",
        "session_surge",
    ),
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
    window_ms: float = 50.0,
    tolerance: float = 1.2,
) -> list[dict]:
    """Resilience accounting over the chaos and closed-loop presets.

    Each scenario runs with its own incident timeline (or closed-loop
    population) and reports the conservation counters — every arrived
    request is completed, lost (in-flight batch killed) or shed (queue
    dropped) — plus the tail-inflation ratio and the time for the p95
    tail to recover to within ``tolerance`` of its pre-incident baseline
    (measured in ``window_ms`` windows).  ``conserved`` certifies the
    accounting identity on every row; chaos-free closed-loop rows report
    zero losses and no recovery clock.
    """
    if window_ms <= 0:
        raise ServingError(f"window_ms must be positive, got {window_ms}")
    model = ExecutionCache()
    rows = []
    for name in scenarios:
        scenario, result = run_scenario(
            name,
            seed=seed,
            load_scale=load_scale,
            duration_scale=duration_scale,
            service_model=model,
        )
        resilience = resilience_metrics(
            result, window_s=window_ms * 1e-3, tolerance=tolerance
        )
        summary = summarize_result(result, scenario.slo_s)
        rows.append(
            {
                "scenario": scenario.name,
                "closed_loop": scenario.sessions is not None,
                "incidents": resilience["incidents"],
                "requests_arrived": resilience["requests_arrived"],
                "requests_completed": resilience["requests_completed"],
                "requests_lost": resilience["requests_lost"],
                "requests_shed": resilience["requests_shed"],
                "conserved": (
                    resilience["requests_completed"]
                    + resilience["requests_lost"]
                    + resilience["requests_shed"]
                    == resilience["requests_arrived"]
                ),
                "pre_incident_p95_ms": resilience["pre_incident_p95_ms"],
                "during_p95_ms": resilience["during_p95_ms"],
                "tail_inflation_x": resilience["tail_inflation_x"],
                "recovery_time_s": resilience["recovery_time_s"],
                "p95_ms": summary["p95_ms"],
                "slo_attainment": summary["slo_attainment"],
                "throughput_rps": summary["throughput_rps"],
            }
        )
    return rows


def _provisioned_mean(info: dict, horizon_s: float) -> float:
    """Time-weighted mean provisioned chip count from the action log."""
    level = info["initial_chips"]
    at = 0.0
    area = 0.0
    for action in info["actions"]:
        if action["action"] not in ("scale_up", "scale_down"):
            continue
        area += level * (action["at_s"] - at)
        at = action["at_s"]
        level = action["provisioned"]
    area += level * max(0.0, horizon_s - at)
    return area / horizon_s if horizon_s > 0 else float(level)


def control_frontier(
    scenarios: tuple[str, ...] = (
        "ramp_surge",
        "flash_crowd",
        "mix_shift",
        "chip_outage",
        "straggler_storm",
    ),
    policies: tuple[str, ...] = ("target_util", "queue_pid"),
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
    max_chips: int = 8,
    min_served_frac: float = 0.9,
) -> list[dict]:
    """SLO-attainment versus provisioned-capacity frontier, per scenario.

    The dynamic version of the DSE capacity planner's question.  For every
    scenario the driver sweeps capacity upward from the preset's fleet
    until the p99 SLO is met, two ways:

    * ``static`` rows provision ``chips`` chips for the whole run (what
      ``repro dse plan`` recommends offline) — the frontier point is the
      cheapest static fleet whose p99 meets the scenario SLO while
      serving at least ``min_served_frac`` of arrivals;
    * controller rows run the closed-loop control plane with
      ``max_chips`` capped at ``chips`` — the frontier point is the
      smallest cap whose run meets the same bar.  ``peak_chips`` /
      ``mean_chips`` report what the autoscaler actually used, and
      ``shed``/``lost``/``scale_ups``/``scale_downs`` expose how it got
      there (admission shedding is visible, never hidden).

    A row with ``meets_slo=False`` is the best attempt at ``max_chips``
    — the scenario's SLO is not reachable inside the sweep's budget.
    On surge scenarios the controller's frontier sits strictly left of
    the static one: admission + autoscaling meet the p99 SLO with fewer
    peak-provisioned chips than any static fleet.
    """
    from repro.serving.control import CONTROLLER_POLICIES, ControllerConfig

    if max_chips < 1:
        raise ServingError(f"max_chips must be positive, got {max_chips}")
    if not 0 < min_served_frac <= 1:
        raise ServingError(
            f"min_served_frac must be in (0, 1], got {min_served_frac}"
        )
    for policy in policies:
        if policy not in CONTROLLER_POLICIES:
            raise ServingError(
                f"unknown controller policy '{policy}'; "
                f"known: {', '.join(CONTROLLER_POLICIES)}"
            )
    model = ExecutionCache()
    rows = []

    def run_point(name, *, num_chips=None, controller=None):
        scenario, result = run_scenario(
            name,
            seed=seed,
            load_scale=load_scale,
            duration_scale=duration_scale,
            num_chips=num_chips,
            controller=controller,
            service_model=model,
        )
        summary = summarize_result(result, scenario.slo_s)
        arrived = result.requests_arrived
        served_frac = result.num_requests / arrived if arrived else 0.0
        meets = (
            summary["p99_ms"] <= scenario.slo_s * 1e3
            and served_frac >= min_served_frac
        )
        return scenario, result, summary, served_frac, meets

    for name in scenarios:
        floor = get_scenario(name).num_chips
        candidates = list(range(floor, max(floor, max_chips) + 1))
        for policy in ("static", *policies):
            for chips in candidates:
                if policy == "static":
                    controller_info = None
                    scenario, result, summary, served_frac, meets = run_point(
                        name, num_chips=chips
                    )
                    peak = chips
                    mean_chips = float(chips)
                else:
                    config = ControllerConfig(policy=policy, max_chips=chips)
                    scenario, result, summary, served_frac, meets = run_point(
                        name, controller=config
                    )
                    controller_info = result.provenance["controller"]
                    peak = controller_info["peak_chips"]
                    mean_chips = _provisioned_mean(
                        controller_info, result.horizon_s
                    )
                if meets or chips == candidates[-1]:
                    break
            rows.append(
                {
                    "scenario": name,
                    "policy": policy,
                    "chips": chips,
                    "peak_chips": peak,
                    "mean_chips": round(mean_chips, 2),
                    "meets_slo": meets,
                    "p99_ms": summary["p99_ms"],
                    "slo_ms": round(scenario.slo_s * 1e3, 4),
                    "slo_attainment": summary["slo_attainment"],
                    "served_frac": round(served_frac, 4),
                    "shed": result.requests_shed,
                    "lost": result.requests_lost,
                    "scale_ups": (
                        controller_info["scale_ups"] if controller_info else 0
                    ),
                    "scale_downs": (
                        controller_info["scale_downs"] if controller_info else 0
                    ),
                    "goodput_rps": summary["goodput_rps"],
                }
            )
    return rows
