"""Seeded arrival-process generators for the serving simulator.

Traffic is a :class:`RequestStream`: the (arrival time, workload, id) of
every request, held as three columns — the form the serving event core
reads — and produced by one of three generators:

* :class:`PoissonArrivals` — homogeneous Poisson process with exponential
  inter-arrival gaps, the classic open-loop serving assumption.
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process
  (normal/burst) producing the bursty traffic real request logs show.
* :class:`TraceArrivals` — replay of an explicit ``(arrival_s, workload)``
  trace, for reproducing recorded load shapes (e.g. diurnal curves).

Every generator is deterministic given a seed: the same ``(generator
configuration, seed)`` pair always yields the identical request stream,
which is what makes whole serving simulations replayable.

A stream's invariants are checked once, when it is built: arrival times
are finite, non-negative and non-decreasing, and ids strictly increase.
The stream is still a ``Sequence[Request]`` — indexing and iteration
yield :class:`Request` objects — so callers that want objects get them,
while the simulator's intakes read the columns directly.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import ServingError
from repro.serving._checks import check_number, check_seed
from repro.workloads.registry import WORKLOAD_BUILDERS

__all__ = [
    "Request",
    "RequestStream",
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
        # Rejects NaN, infinities and ints beyond float range alike.
        if not abs(self.arrival_s) <= sys.float_info.max:
            raise ServingError(
                f"request {self.request_id} has non-finite arrival time "
                f"{self.arrival_s}"
            )
        if self.arrival_s < 0:
            raise ServingError(
                f"request {self.request_id} has negative arrival time {self.arrival_s}"
            )


def _first_unordered(arrivals, ids, prev_arrival, prev_id) -> int:
    """Index of the first row out of stream order, or ``-1``.

    A row is in order when its arrival is not below the previous row's
    and its id is above the previous id; ``prev_arrival``/``prev_id`` are
    those of the row before ``arrivals``.  The comparisons are Python's,
    mapped in C: exact for ids beyond int64 and int arrivals beyond
    float64's integer range.
    """
    ordered = list(map(
        operator.and_,
        map(operator.ge, arrivals, chain((prev_arrival,), arrivals)),
        map(operator.gt, ids, chain((prev_id,), ids)),
    ))
    return ordered.index(False) if False in ordered else -1


class RequestStream(Sequence[Request]):
    """An immutable request stream held as ``arrivals``/``workloads``/``ids``.

    The columns are tuples of plain floats, names and ints.  Construction
    checks, in one vectorized pass, that arrivals are finite, non-negative
    and non-decreasing and that ids strictly increase, so a stream is
    always in the ``(arrival_s, request_id)`` order the event core needs.
    """

    __slots__ = ("arrivals", "workloads", "ids")

    def __init__(
        self,
        arrivals: Iterable[float],
        workloads: Iterable[str],
        ids: Iterable[int],
    ) -> None:
        self.arrivals = tuple(arrivals)
        self.workloads = tuple(workloads)
        self.ids = tuple(ids)
        if not len(self.arrivals) == len(self.workloads) == len(self.ids):
            raise ServingError("request stream columns differ in length")
        if not self.ids:
            return
        try:
            times = np.asarray(self.arrivals, dtype=float)
        except OverflowError:  # an int beyond float range
            times = np.array([
                t if abs(t) <= sys.float_info.max else math.inf
                for t in self.arrivals
            ])
        finite = np.isfinite(times)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ServingError(
                f"request {self.ids[bad]} has non-finite arrival time "
                f"{self.arrivals[bad]}"
            )
        if times[0] < 0:
            raise ServingError(
                f"request {self.ids[0]} has negative arrival time "
                f"{self.arrivals[0]}"
            )
        try:
            ids = np.asarray(self.ids, dtype=np.int64)
        except OverflowError:  # ids beyond int64: compare them exactly
            bad = _first_unordered(self.arrivals, self.ids, -math.inf, -math.inf)
        else:
            unordered = np.flatnonzero(
                (times[1:] < times[:-1]) | (np.diff(ids) <= 0)
            )
            bad = int(unordered[0]) + 1 if unordered.size else -1
        if bad >= 0:
            raise ServingError(
                "request stream is not sorted by arrival time with strictly "
                f"increasing ids near request {self.ids[bad]}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        row = (self.ids[index], self.workloads[index], self.arrivals[index])
        return list(map(Request, *row)) if isinstance(index, slice) else Request(*row)

    def __iter__(self) -> Iterator[Request]:
        return map(Request, self.ids, self.workloads, self.arrivals)

    def __eq__(self, other) -> bool:
        if isinstance(other, RequestStream):
            return (
                self.ids == other.ids
                and self.workloads == other.workloads
                and self.arrivals == other.arrivals
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"RequestStream({len(self)} requests)"


def check_mix_weights(weights: Mapping[str, float], what: str = "workload mix") -> float:
    """Validate a weight mapping and return its total.

    Weights must be finite and non-negative and must sum to a positive
    finite value; anything else raises :class:`~repro.errors.ServingError`.
    """
    if not weights:
        raise ServingError(f"{what} must name at least one workload")
    for weight in weights.values():
        check_number(f"{what} weights", weight, low=0)
    total = sum(map(float, weights.values()))
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
    ) -> RequestStream:
        """Produce the arrival stream for ``[start_s, start_s + duration_s)``.

        Ids run from ``start_id`` in arrival order.
        """
        check_number("duration", duration_s, low=0, strict=True)
        check_number("start_s", start_s)
        check_number("start_id", start_id, integer=True)
        check_seed(seed)
        rng = np.random.default_rng(seed)
        arrivals, workloads = self._generate(duration_s, rng, start_s)
        return RequestStream(
            arrivals, workloads, range(start_id, start_id + len(arrivals))
        )

    def _generate(
        self,
        duration_s: float,
        rng: np.random.Generator,
        start_s: float,
    ) -> tuple[list[float], list[str]]:
        """Subclass hook: the window's non-decreasing arrivals and workloads."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_rps`` requests per second."""

    def __init__(self, rate_rps: float, mix: WorkloadMix) -> None:
        check_number("arrival rate", rate_rps, low=0, strict=True)
        self.rate_rps = rate_rps
        self.mix = mix

    def _generate(self, duration_s, rng, start_s):
        """Exponential inter-arrival times, workloads sampled per request."""
        exponential = rng.exponential
        random = rng.random
        names = self.mix.names
        cdf = self.mix._cdf
        mean_gap = 1.0 / self.rate_rps
        arrivals: list[float] = []
        workloads: list[str] = []
        add_arrival = arrivals.append
        add_workload = workloads.append
        clock = start_s
        horizon = start_s + duration_s
        while True:
            clock += exponential(mean_gap)
            if clock >= horizon:
                return arrivals, workloads
            add_arrival(clock)
            add_workload(names[bisect_right(cdf, random())])


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
        for name, value in (
            ("normal_rate_rps", normal_rate_rps),
            ("burst_rate_rps", burst_rate_rps),
            ("mean_normal_s", mean_normal_s),
            ("mean_burst_s", mean_burst_s),
        ):
            check_number(f"MMPP {name}", value, low=0, strict=True)
        self.normal_rate_rps = normal_rate_rps
        self.burst_rate_rps = burst_rate_rps
        self.mean_normal_s = mean_normal_s
        self.mean_burst_s = mean_burst_s
        self.mix = mix

    def _generate(self, duration_s, rng, start_s):
        """Two-state MMPP: alternate normal/burst dwells, Poisson within."""
        exponential = rng.exponential
        random = rng.random
        names = self.mix.names
        cdf = self.mix._cdf
        arrivals: list[float] = []
        workloads: list[str] = []
        add_arrival = arrivals.append
        add_workload = workloads.append
        clock = start_s
        horizon = start_s + duration_s
        in_burst = False
        while clock < horizon:
            mean_dwell = self.mean_burst_s if in_burst else self.mean_normal_s
            rate = self.burst_rate_rps if in_burst else self.normal_rate_rps
            dwell_end = min(horizon, clock + exponential(mean_dwell))
            mean_gap = 1.0 / rate
            arrival = clock
            while True:
                arrival += exponential(mean_gap)
                if arrival >= dwell_end:
                    break
                add_arrival(arrival)
                add_workload(names[bisect_right(cdf, random())])
            clock = dwell_end
            in_burst = not in_burst
        return arrivals, workloads


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
        for t, _ in trace:
            check_number("trace arrival time", t)
        self.trace = tuple(
            sorted(((float(t), workload) for t, workload in trace))
        )

    def _generate(self, duration_s, rng, start_s):
        """Replay the trace entries that fall inside the window."""
        horizon = start_s + duration_s
        window = [(t, w) for t, w in self.trace if start_s <= t < horizon]
        return [t for t, _ in window], [w for _, w in window]


def concatenate_segments(
    segments: Sequence[tuple[ArrivalProcess, float]], seed: int = 0
) -> RequestStream:
    """Chain arrival processes back to back (e.g. a diurnal low/high/low day).

    Each segment is ``(process, duration_s)``; segment ``i`` starts where
    segment ``i - 1`` ended and gets its own sub-seed so streams stay
    deterministic yet uncorrelated.
    """
    if not segments:
        raise ServingError("concatenate_segments needs at least one segment")
    check_seed(seed)
    arrivals: list[float] = []
    workloads: list[str] = []
    offset = 0.0
    for index, (process, duration_s) in enumerate(segments):
        part = process.generate(
            duration_s,
            seed=seed * SEED_STRIDE + index,
            start_s=offset,
            start_id=len(arrivals),
        )
        arrivals.extend(part.arrivals)
        workloads.extend(part.workloads)
        offset += duration_s
    return RequestStream(arrivals, workloads, range(len(arrivals)))
