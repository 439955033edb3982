"""Named serving scenario presets, defined in the scenario DSL.

A :class:`Scenario` bundles everything one reproducible serving run needs:
a seeded traffic builder, a fleet (chip count + router), a batching policy
and an SLO.  Every preset is declared as a
:class:`~repro.serving.dsl.ScenarioSpec` — a composition of ``steady`` /
``ramp`` / ``burst`` / ``drain`` / ``mix_shift`` phases — and covers a
canonical load shape a production deployment must survive:

* ``steady`` — constant Poisson traffic, uniform workload mix.
* ``diurnal`` — low/peak/low daily curve built from chained steady
  phases.
* ``flash_crowd`` — bursty MMPP traffic with an order-of-magnitude gap
  between the quiet and burst rates.
* ``mixed_workload`` — heavily skewed workload mix on an affinity-sharded
  fleet, stressing per-shard hot spots.
* ``ramp_surge`` — a ramp into an over-capacity burst, then a drain —
  the capacity-planning shape (only expressible with the DSL's ramp and
  drain phases).
* ``mix_shift`` — constant-rate traffic whose workload mix migrates from
  neural-heavy to symbolic-heavy mid-run (a model rollout), the shape
  that stresses adaptive batching and routing controllers.
* ``chip_outage`` — steady traffic through a mid-run chip failure and
  recovery (a :mod:`~repro.serving.chaos` timeline), the basic
  resilience measurement.
* ``straggler_storm`` — a seeded storm of per-chip slowdown windows
  capped off by a fleet-wide power-cap window.
* ``session_surge`` — closed-loop session traffic
  (:mod:`~repro.serving.sessions`): a fixed user population whose
  offered load backs off as latency grows.

Rates are calibrated against the cycle model's sub-millisecond service
times (a single chip sustains roughly 1.4-5.8k requests/s depending on the
workload), so the presets land in the interesting 60-90 % utilization band
at ``load_scale=1.0``.  New scenarios can be added at runtime with
:func:`register_scenario`; recorded traces of any scenario replay through
``repro serve --trace`` (see :mod:`repro.serving.trace`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace as _dc_replace

from repro.errors import ServingError
from repro.serving.batching import build_policy
from repro.serving.chaos import ChaosTimeline, chip_failure, power_cap
from repro.serving.control import ControllerConfig, run_controlled
from repro.serving.dsl import ScenarioSpec, burst, drain, mix_shift, ramp, steady
from repro.serving.fleet import Fleet
from repro.serving.sessions import SessionConfig, run_sessions
from repro.serving.simulator import ServingResult, ServingSimulator
from repro.serving.traffic import Request
from repro.workloads.registry import WORKLOAD_BUILDERS

__all__ = [
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
    "run_scenario",
]

#: every registered workload, in stable order — presets draw from all of them
SERVED_WORKLOADS = tuple(sorted(WORKLOAD_BUILDERS))

#: traffic builder signature: (seed, load_scale, duration_scale) -> requests
TrafficBuilder = Callable[[int, float, float], Sequence[Request]]


@dataclass(frozen=True)
class Scenario:
    """A named, fully specified serving experiment."""

    name: str
    description: str
    traffic: TrafficBuilder
    num_chips: int
    router: str
    policy: str
    slo_s: float
    #: the DSL spec this scenario was built from (None for ad-hoc builders)
    spec: ScenarioSpec | None = None
    #: incident timeline every run of this scenario injects (unscaled time)
    chaos: ChaosTimeline | None = None
    #: closed-loop user population (``traffic`` is unused when set)
    sessions: SessionConfig | None = None
    #: fleet controller every run executes under (None = static fleet)
    controller: ControllerConfig | None = None


#: 70 % NVSA hot spot over a light background of the other workloads
_HOTSPOT_MIX = {"nvsa": 0.7, "mimonet": 0.1, "lvrf": 0.1, "prae": 0.1}

#: the DSL definitions of every preset, in presentation order
_PRESET_SPECS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="steady",
        description="constant Poisson load, uniform workload mix",
        phases=(steady(2400.0, duration_s=2.0),),
        num_chips=2,
        router="jsq",
        policy="continuous",
        slo_s=5e-3,
    ),
    ScenarioSpec(
        name="diurnal",
        description="low/peak/low daily curve from chained Poisson segments",
        phases=(
            steady(400.0, duration_s=0.6),
            steady(2800.0, duration_s=1.0),
            steady(400.0, duration_s=0.6),
        ),
        num_chips=2,
        router="jsq",
        policy="continuous",
        slo_s=5e-3,
    ),
    ScenarioSpec(
        name="flash_crowd",
        description="bursty MMPP traffic with 13x burst-to-quiet rate ratio",
        phases=(
            burst(
                base_rps=300.0,
                burst_rps=4000.0,
                duration_s=2.0,
                mean_normal_s=0.5,
                mean_burst_s=0.15,
            ),
        ),
        num_chips=2,
        router="jsq",
        policy="continuous",
        slo_s=10e-3,
    ),
    ScenarioSpec(
        name="mixed_workload",
        description="70% NVSA hot spot on an affinity-sharded fleet",
        phases=(steady(1200.0, duration_s=2.0, mix=_HOTSPOT_MIX),),
        num_chips=4,
        router="affinity",
        policy="continuous",
        slo_s=5e-3,
    ),
    ScenarioSpec(
        name="ramp_surge",
        description="ramp into an over-capacity surge, then a drain",
        phases=(
            ramp(400.0, 3200.0, duration_s=1.0),
            burst(
                base_rps=3200.0,
                burst_rps=6400.0,
                duration_s=0.6,
                mean_normal_s=0.2,
                mean_burst_s=0.1,
            ),
            drain(0.2),
            steady(600.0, duration_s=0.4),
        ),
        num_chips=2,
        router="jsq",
        policy="continuous",
        slo_s=10e-3,
    ),
    ScenarioSpec(
        name="mix_shift",
        description="model-rollout migration: neural-heavy to symbolic-heavy mix",
        phases=(
            mix_shift(
                1600.0,
                duration_s=2.0,
                mix_from={"mimonet": 0.7, "lvrf": 0.1, "nvsa": 0.1, "prae": 0.1},
                mix_to={"nvsa": 0.7, "lvrf": 0.1, "mimonet": 0.1, "prae": 0.1},
                steps=4,
            ),
        ),
        num_chips=2,
        router="jsq",
        policy="continuous",
        slo_s=5e-3,
    ),
    ScenarioSpec(
        name="chip_outage",
        description="chip failure at the peak of an over-capacity surge",
        phases=(
            steady(9600.0, duration_s=0.5),
            steady(1600.0, duration_s=1.5),
        ),
        num_chips=2,
        router="jsq",
        policy="continuous",
        slo_s=5e-3,
        # Chip 1 dies near the end of the surge — its standing queue
        # guarantees a batch in flight (lost) and queued requests (shed)
        # at any duration_scale — and recovers into the light phase,
        # giving the tail a finite, measurable recovery time.
        chaos=ChaosTimeline((chip_failure(1, 0.45, 0.4),)),
    ),
    ScenarioSpec(
        name="straggler_storm",
        description="seeded per-chip slowdown storm plus a fleet power cap",
        phases=(steady(4000.0, duration_s=2.0),),
        num_chips=4,
        router="jsq",
        policy="continuous",
        slo_s=10e-3,
        chaos=ChaosTimeline(
            ChaosTimeline.seeded(
                7, num_chips=4, horizon_s=1.3,
                straggler_rate=1.5, mean_duration_s=0.2, multiplier=4.0,
            ).incidents
            + (power_cap(1.5, 0.3, 2.0),)
        ),
    ),
    ScenarioSpec(
        name="session_surge",
        description="closed-loop user surge: think-time loops, multi-turn chats",
        phases=(),
        num_chips=2,
        router="jsq",
        policy="continuous",
        slo_s=5e-3,
        sessions=SessionConfig(
            users=96,
            turns=5,
            sessions_per_user=2,
            think_time_s=0.004,
            session_gap_s=0.01,
            start_spread_s=0.25,
            mix=tuple((name, 1.0) for name in SERVED_WORKLOADS),
        ),
    ),
)

#: scenario name -> preset, in presentation order
SCENARIOS: dict[str, Scenario] = {
    spec.name: spec.scenario() for spec in _PRESET_SPECS
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario preset by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ServingError(
            f"unknown scenario '{name}'; known: {', '.join(SCENARIOS)}"
        ) from None


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> Scenario:
    """Add a DSL-defined scenario to the preset registry.

    Registered scenarios become runnable through :func:`run_scenario`,
    ``repro serve`` and trace recording like any built-in preset.  Re-using
    a built-in or registered name requires ``replace=True``.
    """
    if spec.name in SCENARIOS and not replace:
        raise ServingError(
            f"scenario '{spec.name}' already exists; pass replace=True to "
            "override it"
        )
    scenario = spec.scenario()
    SCENARIOS[spec.name] = scenario
    return scenario


def run_scenario(
    name: str,
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
    num_chips: int | None = None,
    router: str | None = None,
    policy: str | None = None,
    service_model=None,
    backends: Sequence[str] | None = None,
    shards: int = 1,
    shard_workers: int | None = None,
    telemetry_window_s: float | None = None,
    chaos: ChaosTimeline | None = None,
    sessions: SessionConfig | None = None,
    controller: ControllerConfig | None = None,
) -> tuple[Scenario, ServingResult]:
    """Execute one scenario preset (with optional overrides) end to end.

    ``backends`` names the per-chip backends (cycled across the fleet);
    when given without ``num_chips`` the fleet grows to one chip per name.
    A caller-supplied ``service_model`` must match the resulting fleet —
    heterogeneous fleets build their own per-chip model when it is None.
    ``shards > 1`` splits router-independent sub-fleets into per-shard
    simulations with records identical to the single-shard run (see
    :mod:`repro.serving.sharding`).  ``telemetry_window_s`` attaches the
    windowed time series (:mod:`repro.serving.telemetry`) to the result.

    ``chaos`` replaces the scenario's incident timeline for this run
    (``repro serve --chaos FILE``); open-loop runs scale it by
    ``duration_scale`` so incidents stay aligned with the stretched
    traffic phases.  ``sessions`` replaces the scenario's closed-loop
    population (``--sessions``); a closed-loop run maps ``load_scale``
    onto the user count and ``duration_scale`` onto conversations per
    user, and cannot shard (incident and feedback accounting are
    fleet-global).

    ``controller`` replaces the scenario's fleet controller
    (``--controller``): the run executes through
    :func:`~repro.serving.control.run_controlled`, which autoscales the
    fleet from the scenario's chip count and may shed over-budget
    arrivals.  A controller whose ``slo_s`` is unset inherits the
    scenario's SLO.  Controller runs are open-loop (no ``sessions``) and
    cannot shard; with ``controller=None`` (and no scenario-declared
    controller) this function is byte-identical to the pre-controller
    layer — the control plane is never on the static path.
    """
    if not all(
        scale > 0 and math.isfinite(scale)
        for scale in (load_scale, duration_scale)
    ):
        raise ServingError(
            "load_scale and duration_scale must be positive and finite"
        )
    scenario = get_scenario(name)
    # Validate the fleet and policy overrides before paying for traffic
    # generation, so bad --backend/--router input fails fast.
    backend_tuple = tuple(backends or ())
    if num_chips is not None:
        chips = num_chips
    elif backend_tuple:
        chips = len(backend_tuple)
    else:
        chips = scenario.num_chips
    fleet = Fleet(
        num_chips=chips,
        router=router if router is not None else scenario.router,
        backends=backend_tuple,
    )
    batching = build_policy(policy if policy is not None else scenario.policy)
    session_config = sessions if sessions is not None else scenario.sessions
    control = controller if controller is not None else scenario.controller
    if control is not None:
        if session_config is not None:
            raise ServingError(
                "controller runs are open-loop: closed-loop sessions shape "
                "their own offered load and cannot be autoscaled"
            )
        if shards != 1:
            raise ServingError(
                "controller runs do not shard: scale actions couple every "
                "chip through the controller"
            )
        if control.slo_s is None:
            control = _dc_replace(control, slo_s=scenario.slo_s)
    timeline = chaos if chaos is not None else scenario.chaos
    if timeline is not None and session_config is None:
        # Closed-loop runs keep incident times as-is: their clock is set
        # by think times and service latency, which the knobs don't touch.
        timeline = timeline.scaled(duration_scale)
    simulator = ServingSimulator(
        service_model=service_model,
        fleet=fleet,
        batching_policy=batching,
        chaos=timeline,
    )
    if session_config is not None:
        if shards != 1:
            raise ServingError(
                "closed-loop session runs do not shard: think-time "
                "feedback couples every chip through the users"
            )
        result = run_sessions(
            simulator,
            session_config.scaled(load_scale, duration_scale),
            seed=seed,
            telemetry_window_s=telemetry_window_s,
        )
    else:
        requests = scenario.traffic(seed, load_scale, duration_scale)
        if not requests:
            raise ServingError(
                f"scenario '{name}' generated no requests "
                f"(seed={seed}, load_scale={load_scale}, "
                f"duration_scale={duration_scale})"
            )
        if control is not None:
            result = run_controlled(
                simulator, control, requests,
                telemetry_window_s=telemetry_window_s,
            )
        else:
            result = simulator.run(
                requests, shards=shards, shard_workers=shard_workers,
                telemetry_window_s=telemetry_window_s,
            )
    result.provenance.update(
        {"scenario": name, "seed": seed, "load_scale": load_scale,
         "duration_scale": duration_scale}
    )
    return scenario, result
