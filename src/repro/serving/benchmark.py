"""Event-core throughput suite: the serving layer's performance contract.

The suite measures *simulated requests per wall-clock second* of
:meth:`~repro.serving.simulator.ServingSimulator.run` across five load
regimes — nominal, moderate overload, deep saturation, an extreme flash
crowd and a sharded hot spot.  Service-report caches are pre-warmed so the
numbers isolate the discrete-event hot path (the thing PR 5 rewrote), not
one-time workload-graph construction.

Wall-clock throughput is machine-dependent, so the recorded baseline in
``benchmarks/BENCH_serving.json`` stores a *calibration* figure (a fixed
pure-Python loop's ops/s) next to every measurement; comparisons scale the
recorded numbers by the live-to-recorded calibration ratio before
applying tolerances.  ``scripts/check_serving_throughput.py`` is the CI
gate built on this module; ``benchmarks/bench_serving_sweep.py`` runs the
same suite under pytest-benchmark.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import NamedTuple

from repro.serving.batching import build_policy
from repro.serving.fleet import Fleet, FleetServiceModel
from repro.serving.scenarios import get_scenario
from repro.serving.simulator import ServingSimulator, request_columns

__all__ = [
    "ThroughputCase",
    "THROUGHPUT_SUITE",
    "ShardedThroughputCase",
    "SHARDED_SUITE",
    "CoupledThroughputCase",
    "COUPLED_SUITE",
    "calibration_ops_per_s",
    "measure_case",
    "measure_suite",
    "measure_sharded_case",
    "measure_sharded_suite",
    "measure_coupled_case",
    "measure_coupled_suite",
    "measure_telemetry_overhead",
    "geometric_mean",
]


class ThroughputCase(NamedTuple):
    """One throughput measurement: a scenario preset at a load regime."""

    label: str
    scenario: str
    load_scale: float
    duration_scale: float


#: the five load regimes the event core is graded on.  The saturated and
#: flash cases push offered load past *batched* fleet capacity — standing
#: queues grow to thousands of requests, which is exactly where the old
#: per-dispatch queue scans collapsed (sub-20k req/s) and where a serving
#: simulator for million-request traces must stay fast.
THROUGHPUT_SUITE: tuple[ThroughputCase, ...] = (
    ThroughputCase("steady_nominal", "steady", 1.0, 4.0),
    ThroughputCase("steady_overload", "steady", 1.6, 4.0),
    ThroughputCase("steady_saturated", "steady", 4.0, 2.0),
    ThroughputCase("flash_megacrowd", "flash_crowd", 4.0, 2.0),
    ThroughputCase("mixed_hotspot", "mixed_workload", 1.3, 4.0),
)

class ShardedThroughputCase(NamedTuple):
    """A sharded measurement: a deep-saturation regime on a wide rr fleet."""

    label: str
    scenario: str
    load_scale: float
    duration_scale: float
    num_chips: int
    router: str
    shards: int


#: the million-req/s regimes: deep saturation (mean batch ≈ 7-8) on an
#: 8-chip round-robin fleet, where the fleet factors into one component
#: per chip and the columnar per-component engine takes over.  Shallower
#: loads (e.g. ``steady_saturated``'s 4.0 on 2 chips) leave each chip at
#: batch ≈ 1 and the sharded path merely matches the single-shard core.
SHARDED_SUITE: tuple[ShardedThroughputCase, ...] = (
    ShardedThroughputCase(
        "steady_saturated_x8", "steady", 16.0, 2.0, 8, "round_robin", 4
    ),
    ShardedThroughputCase(
        "flash_megacrowd_x8", "flash_crowd", 16.0, 2.0, 8, "round_robin", 4
    ),
)

class CoupledThroughputCase(NamedTuple):
    """A coupled-fleet measurement: deep saturation on a JSQ fleet."""

    label: str
    scenario: str
    load_scale: float
    duration_scale: float
    num_chips: int
    max_batch_size: int


#: the coupled-fleet regimes: deep saturation on JSQ fleets, which cannot
#: shard (every routing decision reads every chip's queue depth) and so ran
#: on the scalar per-arrival path before the water-fill engine.  Standing
#: queues of thousands keep the whole fleet busy, which is exactly when
#: arrival runs route as single vectorized spans; large continuous-batching
#: caps are what deep saturation pairs with in practice (draining a
#: thousand-deep queue eight requests at a time would be a config bug).
COUPLED_SUITE: tuple[CoupledThroughputCase, ...] = (
    CoupledThroughputCase("steady_coupled_x2", "steady", 64.0, 0.5, 2, 128),
    CoupledThroughputCase(
        "steady_coupled_deep_x2", "steady", 128.0, 0.25, 2, 256
    ),
    CoupledThroughputCase("steady_coupled_x4", "steady", 192.0, 0.25, 4, 128),
)

#: iterations of the calibration loop (a fixed, allocation-free workload)
_CALIBRATION_OPS = 2_000_000


def calibration_ops_per_s() -> float:
    """Machine-speed yardstick: ops/s of a fixed pure-Python loop.

    Recorded next to every baseline measurement so a throughput check on a
    faster or slower machine can rescale the recorded numbers instead of
    comparing wall-clock figures across hardware.  Best of three, like the
    measurements it normalizes.
    """
    best = 0.0
    for _ in range(3):
        total = 0
        started = time.perf_counter()
        for i in range(_CALIBRATION_OPS):
            total += i % 7
        elapsed = time.perf_counter() - started
        best = max(best, _CALIBRATION_OPS / elapsed)
    return best


def measure_case(case: ThroughputCase, repeats: int = 3) -> dict:
    """Measure one suite case: best-of-``repeats`` requests/s of ``run``.

    Traffic generation and the first (cache-warming) run are excluded from
    timing — the measurement is the event loop itself over a fully
    memoized service table.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    scenario = get_scenario(case.scenario)
    requests = scenario.traffic(0, case.load_scale, case.duration_scale)
    fleet = Fleet(num_chips=scenario.num_chips, router=scenario.router)
    simulator = ServingSimulator(
        service_model=FleetServiceModel(fleet=fleet),
        fleet=fleet,
        batching_policy=build_policy(scenario.policy),
    )
    simulator.run(requests)  # warm every (workload, batch) service report
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        simulator.run(requests)
        elapsed = time.perf_counter() - started
        best = max(best, len(requests) / elapsed)
    return {
        "label": case.label,
        "scenario": case.scenario,
        "load_scale": case.load_scale,
        "duration_scale": case.duration_scale,
        "requests": len(requests),
        "requests_per_s": round(best, 1),
    }


def measure_suite(repeats: int = 3, jobs: int = 1) -> list[dict]:
    """Measure every case of :data:`THROUGHPUT_SUITE`.

    ``jobs > 1`` fans the cases across the suite runner's process pool
    (:func:`repro.serving.suite.map_cases`) — useful for quick sweeps on
    multi-core machines, but keep the default for gate timings: parallel
    cases contend for cores and distort each other's wall clock.
    """
    from functools import partial

    from repro.serving.suite import map_cases

    return map_cases(
        partial(measure_case, repeats=repeats), THROUGHPUT_SUITE, jobs=jobs
    )


def measure_sharded_case(case: ShardedThroughputCase, repeats: int = 3) -> dict:
    """Measure one sharded case at ``shards=1`` and ``shards=case.shards``.

    Both numbers go through :meth:`ServingSimulator.run_stream` over one
    pre-columnarized chunk, so the comparison isolates the sharded merge
    against the single-shard streaming core on identical input.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    scenario = get_scenario(case.scenario)
    requests = scenario.traffic(0, case.load_scale, case.duration_scale)
    fleet = Fleet(num_chips=case.num_chips, router=case.router)
    simulator = ServingSimulator(
        service_model=FleetServiceModel(fleet=fleet),
        fleet=fleet,
        batching_policy=build_policy(scenario.policy),
    )
    columns = request_columns(requests)
    workloads = tuple(sorted(set(columns[1])))
    simulator.run_stream([columns], workloads)  # warm the service reports

    def best_of(shards: int) -> float:
        best = 0.0
        for _ in range(repeats):
            started = time.perf_counter()
            simulator.run_stream([columns], workloads, shards=shards)
            elapsed = time.perf_counter() - started
            best = max(best, len(requests) / elapsed)
        return best

    single = best_of(1)
    sharded = best_of(case.shards)
    return {
        "label": case.label,
        "scenario": case.scenario,
        "load_scale": case.load_scale,
        "duration_scale": case.duration_scale,
        "num_chips": case.num_chips,
        "router": case.router,
        "shards": case.shards,
        "requests": len(requests),
        "requests_per_s": round(sharded, 1),
        "single_shard_requests_per_s": round(single, 1),
    }


def measure_sharded_suite(repeats: int = 3) -> list[dict]:
    """Measure every case of :data:`SHARDED_SUITE`."""
    return [
        measure_sharded_case(case, repeats=repeats) for case in SHARDED_SUITE
    ]


def measure_coupled_case(case: CoupledThroughputCase, repeats: int = 3) -> dict:
    """Measure one coupled case: best-of-``repeats`` req/s on a JSQ fleet.

    Like :func:`measure_sharded_case`, the measurement goes through
    :meth:`ServingSimulator.run_stream` over one pre-columnarized chunk
    with a pre-warmed service table, so it isolates the coupled event
    core — water-fill spans plus indexed min-queue routing — from traffic
    generation and one-time workload-graph construction.  The returned
    row carries the run's ``event_paths`` provenance so recordings show
    how much of the load actually took the vectorized path.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    scenario = get_scenario(case.scenario)
    requests = scenario.traffic(0, case.load_scale, case.duration_scale)
    fleet = Fleet(num_chips=case.num_chips, router="jsq")
    simulator = ServingSimulator(
        service_model=FleetServiceModel(fleet=fleet),
        fleet=fleet,
        batching_policy=build_policy(
            "continuous", max_batch_size=case.max_batch_size
        ),
    )
    columns = request_columns(requests)
    workloads = tuple(sorted(set(columns[1])))
    result = simulator.run_stream([columns], workloads)  # warm the reports
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        simulator.run_stream([columns], workloads)
        elapsed = time.perf_counter() - started
        best = max(best, len(requests) / elapsed)
    event_paths = result.provenance.get("event_paths", {})
    return {
        "label": case.label,
        "scenario": case.scenario,
        "load_scale": case.load_scale,
        "duration_scale": case.duration_scale,
        "num_chips": case.num_chips,
        "router": "jsq",
        "max_batch_size": case.max_batch_size,
        "requests": len(requests),
        "requests_per_s": round(best, 1),
        "water_fill_requests": event_paths.get("water_fill_requests", 0),
    }


def measure_coupled_suite(repeats: int = 3, jobs: int = 1) -> list[dict]:
    """Measure every case of :data:`COUPLED_SUITE`.

    Coupled fleets cannot shard, but independent cases can still run in
    parallel: ``jobs > 1`` uses the suite runner's pool (see
    :func:`measure_suite` for the gate-timing caveat).
    """
    from functools import partial

    from repro.serving.suite import map_cases

    return map_cases(
        partial(measure_coupled_case, repeats=repeats), COUPLED_SUITE,
        jobs=jobs,
    )


def measure_telemetry_overhead(
    case: ThroughputCase | None = None,
    window_s: float = 0.02,
    repeats: int = 3,
) -> dict:
    """Wall-clock cost of telemetry on one suite case, off vs on.

    Runs the case ``repeats`` times alternating ``telemetry_window_s=None``
    and the given window over a pre-warmed service table.  The returned
    ``overhead_pct`` is the *median of the paired per-iteration deltas*
    over the median off time (the acceptance budget is <10 %):
    interleaving makes each pair see the same machine state, and the
    median of deltas is robust against the multi-millisecond noise a
    single slow iteration injects into a best-of comparison.  The
    telemetry-off number is the same measurement the throughput gate
    takes, so "off means free" stays checked by CI without a second
    gate.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    case = case if case is not None else THROUGHPUT_SUITE[0]
    scenario = get_scenario(case.scenario)
    requests = scenario.traffic(0, case.load_scale, case.duration_scale)
    fleet = Fleet(num_chips=scenario.num_chips, router=scenario.router)
    simulator = ServingSimulator(
        service_model=FleetServiceModel(fleet=fleet),
        fleet=fleet,
        batching_policy=build_policy(scenario.policy),
    )
    simulator.run(requests)  # warm every (workload, batch) service report

    offs: list[float] = []
    ons: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        simulator.run(requests)
        offs.append(time.perf_counter() - started)
        started = time.perf_counter()
        simulator.run(requests, telemetry_window_s=window_s)
        ons.append(time.perf_counter() - started)
    off_s = statistics.median(offs)
    on_s = statistics.median(ons)
    delta_s = statistics.median(on - off for on, off in zip(ons, offs))
    return {
        "label": case.label,
        "scenario": case.scenario,
        "requests": len(requests),
        "window_s": window_s,
        "off_s": round(off_s, 6),
        "on_s": round(on_s, 6),
        "overhead_pct": round(100.0 * delta_s / off_s, 2)
        if off_s > 0
        else 0.0,
    }


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the right average for per-case speedup ratios)."""
    if not values:
        raise ValueError("geometric_mean needs at least one value")
    if any(value <= 0 for value in values):
        raise ValueError(f"geometric_mean needs positive values, got {values}")
    return math.exp(sum(math.log(value) for value in values) / len(values))
