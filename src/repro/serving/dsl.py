"""Scenario DSL: compose traffic phases into reproducible serving scenarios.

The scenario presets used to be hand-written traffic functions; this
module replaces them with a small declarative vocabulary.  A
:class:`ScenarioSpec` is a named sequence of *phases*, each a frozen
description of one stretch of traffic:

* :func:`steady` — constant-rate Poisson arrivals,
* :func:`ramp` — linearly ramping Poisson rate (piecewise-constant steps),
* :func:`burst` — two-state MMPP (normal/burst) bursty traffic,
* :func:`drain` — an arrival-free gap that lets queues empty,
* :func:`mix_shift` — constant rate while the workload mix interpolates
  from one distribution to another (e.g. a model rollout).

Compilation turns phases into ``(arrival process, duration)`` segments and
generates them back to back.  Seeding follows the repo's segment
convention: a single-segment scenario uses the caller's seed directly (so
DSL re-expressions of the one-process presets are request-for-request
identical to the originals), while multi-segment scenarios give segment
``i`` the sub-seed ``seed * 10_007 + i`` — exactly
:func:`~repro.serving.traffic.concatenate_segments` semantics.

``load_scale`` multiplies every phase's arrival rates and
``duration_scale`` stretches every phase's duration, matching the knobs
``repro serve`` exposes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.serving.chaos import ChaosTimeline
from repro.serving.control import ControllerConfig
from repro.serving.sessions import SessionConfig
from repro.serving.traffic import (
    SEED_STRIDE,
    ArrivalProcess,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    RequestStream,
    WorkloadMix,
)

__all__ = [
    "Phase",
    "steady",
    "ramp",
    "burst",
    "drain",
    "mix_shift",
    "ScenarioSpec",
]



def _normalize_mix(mix: Mapping[str, float] | None) -> tuple[tuple[str, float], ...]:
    """A hashable, validated ``(name, weight)`` form of a workload mix.

    ``None`` means the uniform mix over every registered workload.
    Validation happens eagerly (via :class:`WorkloadMix`) so a typo in a
    scenario definition fails at definition time, not mid-run.
    """
    if mix is None:
        built = WorkloadMix.uniform()
    else:
        built = WorkloadMix(dict(mix))
    return tuple(zip(built.names, built.probabilities))


def _build_mix(weights: tuple[tuple[str, float], ...]) -> WorkloadMix:
    """Rebuild a :class:`WorkloadMix` from its normalized weight tuple."""
    return WorkloadMix(dict(weights))


@dataclass(frozen=True)
class Phase:
    """One stretch of a scenario's traffic.

    ``kind`` selects the compilation rule; ``params`` holds the
    kind-specific knobs.  Use the factory functions (:func:`steady`,
    :func:`ramp`, :func:`burst`, :func:`drain`, :func:`mix_shift`) rather
    than constructing phases directly.
    """

    kind: str
    duration_s: float
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ServingError(
                f"phase duration must be positive, got {self.duration_s}"
            )

    def segments(
        self, load_scale: float, duration_scale: float
    ) -> list[tuple[ArrivalProcess | None, float]]:
        """Compile to ``(process, duration)`` segments (``None`` = silence)."""
        params = dict(self.params)
        duration = self.duration_s * duration_scale
        if self.kind == "steady":
            return [
                (
                    PoissonArrivals(
                        params["rate_rps"] * load_scale,
                        _build_mix(params["mix"]),
                    ),
                    duration,
                )
            ]
        if self.kind == "drain":
            return [(None, duration)]
        if self.kind == "burst":
            return [
                (
                    MMPPArrivals(
                        normal_rate_rps=params["base_rps"] * load_scale,
                        burst_rate_rps=params["burst_rps"] * load_scale,
                        mix=_build_mix(params["mix"]),
                        mean_normal_s=params["mean_normal_s"],
                        mean_burst_s=params["mean_burst_s"],
                    ),
                    duration,
                )
            ]
        if self.kind == "ramp":
            steps = params["steps"]
            mix = _build_mix(params["mix"])
            start = params["start_rps"]
            end = params["end_rps"]
            step_duration = duration / steps
            return [
                (
                    PoissonArrivals(
                        # midpoint rate of the step, so the ramp's total
                        # offered load matches the continuous ramp's
                        (start + (end - start) * (step + 0.5) / steps)
                        * load_scale,
                        mix,
                    ),
                    step_duration,
                )
                for step in range(steps)
            ]
        if self.kind == "mix_shift":
            steps = params["steps"]
            mix_from = dict(params["mix_from"])
            mix_to = dict(params["mix_to"])
            names = sorted(set(mix_from) | set(mix_to))
            rate = params["rate_rps"] * load_scale
            step_duration = duration / steps
            segments = []
            for step in range(steps):
                t = (step + 0.5) / steps
                weights = {
                    name: (1.0 - t) * mix_from.get(name, 0.0)
                    + t * mix_to.get(name, 0.0)
                    for name in names
                }
                segments.append(
                    (PoissonArrivals(rate, WorkloadMix(weights)), step_duration)
                )
            return segments
        raise ServingError(f"unknown phase kind '{self.kind}'")


def steady(rate_rps: float, duration_s: float,
           mix: Mapping[str, float] | None = None) -> Phase:
    """Constant Poisson arrivals at ``rate_rps`` for ``duration_s``."""
    if rate_rps <= 0:
        raise ServingError(f"steady rate must be positive, got {rate_rps}")
    return Phase(
        kind="steady",
        duration_s=duration_s,
        params=(("rate_rps", rate_rps), ("mix", _normalize_mix(mix))),
    )


def ramp(start_rps: float, end_rps: float, duration_s: float,
         mix: Mapping[str, float] | None = None, steps: int = 8) -> Phase:
    """Linear rate ramp from ``start_rps`` to ``end_rps``.

    Compiled as ``steps`` piecewise-constant Poisson segments at the step
    midpoints, which preserves the ramp's total offered load.
    """
    if start_rps <= 0 or end_rps <= 0:
        raise ServingError("ramp rates must be positive")
    if steps < 1:
        raise ServingError(f"ramp needs at least one step, got {steps}")
    return Phase(
        kind="ramp",
        duration_s=duration_s,
        params=(
            ("start_rps", start_rps),
            ("end_rps", end_rps),
            ("steps", steps),
            ("mix", _normalize_mix(mix)),
        ),
    )


def burst(base_rps: float, burst_rps: float, duration_s: float,
          mix: Mapping[str, float] | None = None,
          mean_normal_s: float = 1.0, mean_burst_s: float = 0.2) -> Phase:
    """Bursty MMPP traffic alternating ``base_rps`` and ``burst_rps``."""
    if base_rps <= 0 or burst_rps <= 0:
        raise ServingError("burst rates must be positive")
    if mean_normal_s <= 0 or mean_burst_s <= 0:
        raise ServingError("burst dwell times must be positive")
    return Phase(
        kind="burst",
        duration_s=duration_s,
        params=(
            ("base_rps", base_rps),
            ("burst_rps", burst_rps),
            ("mean_normal_s", mean_normal_s),
            ("mean_burst_s", mean_burst_s),
            ("mix", _normalize_mix(mix)),
        ),
    )


def drain(duration_s: float) -> Phase:
    """An arrival-free gap: the clock advances, queues get to empty."""
    return Phase(kind="drain", duration_s=duration_s)


def mix_shift(rate_rps: float, duration_s: float,
              mix_from: Mapping[str, float], mix_to: Mapping[str, float],
              steps: int = 4) -> Phase:
    """Constant-rate traffic whose workload mix interpolates ``from -> to``.

    Models gradual workload migrations (a rollout shifting traffic from
    one model family to another) as ``steps`` piecewise mixes evaluated at
    the step midpoints.
    """
    if rate_rps <= 0:
        raise ServingError(f"mix_shift rate must be positive, got {rate_rps}")
    if steps < 1:
        raise ServingError(f"mix_shift needs at least one step, got {steps}")
    return Phase(
        kind="mix_shift",
        duration_s=duration_s,
        params=(
            ("rate_rps", rate_rps),
            ("steps", steps),
            ("mix_from", _normalize_mix(mix_from)),
            ("mix_to", _normalize_mix(mix_to)),
        ),
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, phase-composed serving scenario.

    The declarative counterpart of
    :class:`~repro.serving.scenarios.Scenario`: phases describe the
    traffic, the remaining fields pin the fleet, batching policy and SLO.
    ``build_traffic`` generates the request stream; ``scenario()``
    packages the spec in the preset registry's runtime form.
    """

    name: str
    description: str
    phases: tuple[Phase, ...]
    num_chips: int = 2
    router: str = "jsq"
    policy: str = "continuous"
    slo_s: float = 5e-3
    #: incident timeline injected into every run of the scenario (in
    #: unscaled phase time; ``run_scenario`` applies ``duration_scale``)
    chaos: ChaosTimeline | None = None
    #: closed-loop user population replacing the open-loop phases
    sessions: SessionConfig | None = None
    #: fleet controller every run of the scenario executes under
    #: (:mod:`repro.serving.control`); None = static fleet
    controller: ControllerConfig | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("a scenario spec needs a name")
        if self.controller is not None:
            if not isinstance(self.controller, ControllerConfig):
                raise ServingError(
                    "controller must be a ControllerConfig, "
                    f"got {type(self.controller).__name__}"
                )
            if self.sessions is not None:
                raise ServingError(
                    f"scenario '{self.name}' is closed-loop (sessions) — "
                    "a fleet controller needs open-loop traffic"
                )
        if self.sessions is not None:
            if self.phases:
                raise ServingError(
                    f"scenario '{self.name}' is closed-loop (sessions) — "
                    "it cannot also declare open-loop phases"
                )
            if not isinstance(self.sessions, SessionConfig):
                raise ServingError(
                    "sessions must be a SessionConfig, "
                    f"got {type(self.sessions).__name__}"
                )
        elif not self.phases:
            raise ServingError(f"scenario '{self.name}' has no phases")
        if self.phases and all(phase.kind == "drain" for phase in self.phases):
            raise ServingError(
                f"scenario '{self.name}' is all drain phases — it would "
                "generate no traffic"
            )
        if self.chaos is not None and not isinstance(self.chaos, ChaosTimeline):
            raise ServingError(
                f"chaos must be a ChaosTimeline, got {type(self.chaos).__name__}"
            )
        if self.num_chips < 1:
            raise ServingError(f"num_chips must be positive, got {self.num_chips}")
        if self.slo_s <= 0:
            raise ServingError(f"slo_s must be positive, got {self.slo_s}")

    @property
    def duration_s(self) -> float:
        """Total unscaled duration across phases."""
        return sum(phase.duration_s for phase in self.phases)

    def build_traffic(
        self, seed: int = 0, load_scale: float = 1.0, duration_scale: float = 1.0
    ) -> Sequence[Request]:
        """Generate the scenario's request stream.

        Single-segment scenarios use ``seed`` directly; multi-segment ones
        follow the ``concatenate_segments`` sub-seed convention (segment
        ``i`` gets ``seed * 10_007 + i``, drains included), so streams stay
        deterministic yet uncorrelated across segments.
        """
        if load_scale <= 0 or duration_scale <= 0:
            raise ServingError("load_scale and duration_scale must be positive")
        if self.sessions is not None:
            raise ServingError(
                f"scenario '{self.name}' is closed-loop — its traffic is "
                "generated by run_sessions, not build_traffic"
            )
        segments: list[tuple[ArrivalProcess | None, float]] = []
        for phase in self.phases:
            segments.extend(phase.segments(load_scale, duration_scale))
        single = len(segments) == 1
        arrivals: list[float] = []
        workloads: list[str] = []
        offset = 0.0
        for index, (process, duration) in enumerate(segments):
            if process is not None:
                part = process.generate(
                    duration,
                    seed=seed if single else seed * SEED_STRIDE + index,
                    start_s=offset,
                    start_id=len(arrivals),
                )
                arrivals.extend(part.arrivals)
                workloads.extend(part.workloads)
            offset += duration
        return RequestStream(arrivals, workloads, range(len(arrivals)))

    def scenario(self):
        """This spec as a runtime :class:`~repro.serving.scenarios.Scenario`."""
        from repro.serving.scenarios import Scenario

        return Scenario(
            name=self.name,
            description=self.description,
            traffic=self.build_traffic,
            num_chips=self.num_chips,
            router=self.router,
            policy=self.policy,
            slo_s=self.slo_s,
            spec=self,
            chaos=self.chaos,
            sessions=self.sessions,
            controller=self.controller,
        )
