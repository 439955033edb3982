"""Seeded arrival-process generators for the serving simulator.

Traffic is a stream of :class:`Request` objects — (id, workload, arrival
time) — produced by one of three generators:

* :class:`PoissonArrivals` — homogeneous Poisson process with exponential
  inter-arrival gaps, the classic open-loop serving assumption.
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process
  (normal/burst) producing the bursty traffic real request logs show.
* :class:`TraceArrivals` — replay of an explicit ``(arrival_s, workload)``
  trace, for reproducing recorded load shapes (e.g. diurnal curves).

Every generator is deterministic given a seed: the same ``(generator
configuration, seed)`` pair always yields the identical request stream,
which is what makes whole serving simulations replayable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.workloads.registry import WORKLOAD_BUILDERS

__all__ = [
    "Request",
    "WorkloadMix",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "TraceArrivals",
    "SEED_STRIDE",
    "concatenate_segments",
    "check_mix_weights",
    "choice_cdf",
    "draw_index",
]

#: sub-seed stride between chained generation segments.  Shared by
#: :func:`concatenate_segments`, the scenario DSL's multi-phase compilation
#: and windowed trace recording — all three must derive segment ``i``'s
#: seed as ``seed * SEED_STRIDE + i`` or recorded streams stop matching
#: their generators.
SEED_STRIDE = 10_007


@dataclass(frozen=True)
class Request:
    """One inference request entering the serving system."""

    request_id: int
    workload: str
    arrival_s: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ServingError(
                f"request {self.request_id} has negative arrival time {self.arrival_s}"
            )


def check_mix_weights(weights: Mapping[str, float], what: str = "workload mix") -> float:
    """Validate a weight mapping and return its total.

    Weights must be finite and non-negative and must sum to a positive
    finite value; anything else raises :class:`~repro.errors.ServingError`.
    """
    if not weights:
        raise ServingError(f"{what} must name at least one workload")
    if not all(math.isfinite(weight) for weight in weights.values()):
        raise ServingError(f"{what} weights must be finite")
    if any(weight < 0 for weight in weights.values()):
        raise ServingError(f"{what} weights must be non-negative")
    total = float(sum(weights.values()))
    if not 0 < total < math.inf:
        raise ServingError(f"{what} weights must sum to a positive finite value")
    return total


def choice_cdf(probabilities: Sequence[float]) -> tuple[float, ...]:
    """The cumulative distribution ``Generator.choice(n, p=...)`` samples.

    Built the way numpy builds it (``cumsum``, then divided by the last
    element), so :func:`draw_index` reproduces ``choice``'s draws exactly.
    """
    cdf = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def draw_index(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """One index drawn from ``cdf`` by bisection.

    It is the index ``rng.choice(len(cdf), p=...)`` returns, and it
    consumes the same single ``rng.random()``.
    """
    return bisect_right(cdf, rng.random())


class WorkloadMix:
    """A normalised distribution over workload names.

    Names must be registered workload builders so every sampled request can
    actually be served; weights are normalised to probabilities.
    """

    def __init__(self, weights: Mapping[str, float]) -> None:
        unknown = set(weights) - set(WORKLOAD_BUILDERS)
        if unknown:
            raise ServingError(
                f"workload mix names unknown workloads {sorted(unknown)}; "
                f"known: {sorted(WORKLOAD_BUILDERS)}"
            )
        total = check_mix_weights(weights)
        # Sorted name order makes sampling independent of dict insertion order.
        self.names: tuple[str, ...] = tuple(sorted(weights))
        self.probabilities: tuple[float, ...] = tuple(
            weights[name] / total for name in self.names
        )
        self._cdf = choice_cdf(self.probabilities)

    @classmethod
    def uniform(cls, names: Iterable[str] | None = None) -> "WorkloadMix":
        """Equal-probability mix over ``names`` (default: every workload)."""
        names = tuple(names) if names is not None else tuple(sorted(WORKLOAD_BUILDERS))
        return cls({name: 1.0 for name in names})

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one workload name."""
        return self.names[draw_index(self._cdf, rng)]


class ArrivalProcess:
    """Base class for request-stream generators."""

    def generate(
        self,
        duration_s: float,
        seed: int = 0,
        start_s: float = 0.0,
        start_id: int = 0,
    ) -> list[Request]:
        """Produce the arrival stream for ``[start_s, start_s + duration_s)``."""
        if not (duration_s > 0 and math.isfinite(duration_s)):
            raise ServingError(
                f"duration must be positive and finite, got {duration_s}"
            )
        if not math.isfinite(start_s):
            raise ServingError(f"start_s must be finite, got {start_s}")
        rng = np.random.default_rng(seed)
        requests = self._generate(duration_s, rng, start_s, start_id)
        return sorted(requests, key=lambda r: (r.arrival_s, r.request_id))

    def _generate(
        self,
        duration_s: float,
        rng: np.random.Generator,
        start_s: float,
        start_id: int,
    ) -> list[Request]:
        """Subclass hook producing the (possibly unsorted) raw arrivals."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_rps`` requests per second."""

    def __init__(self, rate_rps: float, mix: WorkloadMix) -> None:
        if not (rate_rps > 0 and math.isfinite(rate_rps)):
            raise ServingError(
                f"arrival rate must be positive and finite, got {rate_rps}"
            )
        self.rate_rps = rate_rps
        self.mix = mix

    def _generate(self, duration_s, rng, start_s, start_id):
        """Exponential inter-arrival times, workloads sampled per request."""
        requests = []
        clock = start_s
        horizon = start_s + duration_s
        while True:
            clock += rng.exponential(1.0 / self.rate_rps)
            if clock >= horizon:
                return requests
            requests.append(
                Request(start_id + len(requests), self.mix.sample(rng), clock)
            )


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (normal/burst).

    The process alternates between a *normal* state and a *burst* state;
    dwell times in each state are exponential with the configured means, and
    within a state arrivals are Poisson at that state's rate.  This is the
    standard minimal model of bursty request traffic.
    """

    def __init__(
        self,
        normal_rate_rps: float,
        burst_rate_rps: float,
        mix: WorkloadMix,
        mean_normal_s: float = 1.0,
        mean_burst_s: float = 0.2,
    ) -> None:
        if not all(
            rate > 0 and math.isfinite(rate)
            for rate in (normal_rate_rps, burst_rate_rps)
        ):
            raise ServingError("MMPP state rates must be positive and finite")
        if not all(
            mean > 0 and math.isfinite(mean)
            for mean in (mean_normal_s, mean_burst_s)
        ):
            raise ServingError("MMPP mean dwell times must be positive and finite")
        self.normal_rate_rps = normal_rate_rps
        self.burst_rate_rps = burst_rate_rps
        self.mean_normal_s = mean_normal_s
        self.mean_burst_s = mean_burst_s
        self.mix = mix

    def _generate(self, duration_s, rng, start_s, start_id):
        """Two-state MMPP: alternate normal/burst dwells, Poisson within."""
        requests = []
        clock = start_s
        horizon = start_s + duration_s
        in_burst = False
        while clock < horizon:
            mean_dwell = self.mean_burst_s if in_burst else self.mean_normal_s
            rate = self.burst_rate_rps if in_burst else self.normal_rate_rps
            dwell_end = min(horizon, clock + rng.exponential(mean_dwell))
            arrival = clock
            while True:
                arrival += rng.exponential(1.0 / rate)
                if arrival >= dwell_end:
                    break
                requests.append(
                    Request(start_id + len(requests), self.mix.sample(rng), arrival)
                )
            clock = dwell_end
            in_burst = not in_burst
        return requests


class TraceArrivals(ArrivalProcess):
    """Replay an explicit ``(arrival_s, workload)`` trace.

    Entries outside the generation window are dropped; the seed is unused
    (replay is deterministic by construction).
    """

    def __init__(self, trace: Sequence[tuple[float, str]]) -> None:
        if not trace:
            raise ServingError("trace must contain at least one entry")
        unknown = {workload for _, workload in trace} - set(WORKLOAD_BUILDERS)
        if unknown:
            raise ServingError(
                f"trace names unknown workloads {sorted(unknown)}; "
                f"known: {sorted(WORKLOAD_BUILDERS)}"
            )
        self.trace = tuple(
            sorted(((float(t), workload) for t, workload in trace))
        )

    def _generate(self, duration_s, rng, start_s, start_id):
        """Replay the trace entries that fall inside the window."""
        horizon = start_s + duration_s
        return [
            Request(start_id + index, workload, arrival)
            for index, (arrival, workload) in enumerate(
                (t, w) for t, w in self.trace if start_s <= t < horizon
            )
        ]


def concatenate_segments(
    segments: Sequence[tuple[ArrivalProcess, float]], seed: int = 0
) -> list[Request]:
    """Chain arrival processes back to back (e.g. a diurnal low/high/low day).

    Each segment is ``(process, duration_s)``; segment ``i`` starts where
    segment ``i - 1`` ended and gets its own sub-seed so streams stay
    deterministic yet uncorrelated.
    """
    if not segments:
        raise ServingError("concatenate_segments needs at least one segment")
    requests: list[Request] = []
    offset = 0.0
    for index, (process, duration_s) in enumerate(segments):
        requests.extend(
            process.generate(
                duration_s,
                seed=seed * SEED_STRIDE + index,
                start_s=offset,
                start_id=len(requests),
            )
        )
        offset += duration_s
    return requests
