"""Closed-loop session traffic: users whose offered load reacts to latency.

Open-loop traffic keeps arriving no matter how slow the fleet gets.  Chat
and agent traffic is closed loop: a user submits a request, reads the
answer, thinks, and only then submits the next turn, so the offered rate
falls as observed latency grows.

:class:`SessionConfig` describes a fixed population of users, each running
``sessions_per_user`` conversations of ``turns`` requests with exponential
think times between turns and gaps between conversations.
:func:`run_sessions` serves it on the event core of a
:class:`~repro.serving.simulator.ServingSimulator` through a private
arrival-source hook: each user's next submission waits in the core's event
heap, each instant's submissions take the same routing and enqueue path as
open-loop arrivals, and completions and chaos drops move users on.  The
simulator's whole-trace driver assembles the result exactly as for
:meth:`~repro.serving.simulator.ServingSimulator.run`: an ordinary
:class:`~repro.serving.simulator.ServingResult` whose telemetry counts
every submitted request as an arrival.

Determinism: user ``u`` of a run seeded ``s`` draws from
``default_rng(s * SEED_STRIDE + u)`` in a fixed per-user order (start
offset, then workload/think pairs), and request ids follow submission
order, so the trace, given the fleet, is a pure function of the seed.  A
request a chip failure loses or sheds unblocks its user at the failure
instant (the user saw an error and moves on), keeping conservation over
*submitted* requests: ``arrived == completed + lost + shed``.  Requests
queued on a chip that never recovers are counted shed and strand their
users mid-conversation.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.errors import ServingError
from repro.serving.simulator import ServingResult
from repro.serving.traffic import (
    SEED_STRIDE,
    check_mix_weights,
    choice_cdf,
    draw_index,
)

__all__ = ["SessionConfig", "run_sessions"]


def _normalize_mix(mix: Mapping[str, float]) -> tuple[tuple[str, float], ...]:
    """Sorted ``(name, probability)`` pairs from a weight mapping.

    Unlike :class:`~repro.serving.traffic.WorkloadMix` this does not
    require registered workload builders: a session run serves whatever
    workloads its service model understands (tests use synthetic ones).
    """
    total = check_mix_weights(mix, "session mix")
    return tuple((name, mix[name] / total) for name in sorted(mix))


@dataclass(frozen=True)
class SessionConfig:
    """A fixed closed-loop user population.

    ``users`` independent users each run ``sessions_per_user``
    conversations of ``turns`` requests.  Between turns a user thinks for
    an exponential ``think_time_s`` (mean); between conversations they
    pause for an exponential ``session_gap_s``.  Users come online spread
    uniformly over ``[0, start_spread_s)`` so the population does not
    arrive as one synchronized burst.  ``mix`` weights the workload each
    turn samples.
    """

    users: int
    turns: int = 4
    sessions_per_user: int = 1
    think_time_s: float = 0.02
    session_gap_s: float = 0.05
    start_spread_s: float = 0.5
    mix: tuple[tuple[str, float], ...] = field(
        default_factory=lambda: (("nvsa", 1.0),)
    )

    def __post_init__(self):
        for name in ("users", "turns", "sessions_per_user"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ServingError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ServingError(f"{name} must be positive, got {value}")
        for name, value in (("think_time_s", self.think_time_s),
                            ("session_gap_s", self.session_gap_s),
                            ("start_spread_s", self.start_spread_s)):
            if not (value >= 0.0 and math.isfinite(value)):
                raise ServingError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        object.__setattr__(self, "mix", _normalize_mix(dict(self.mix)))

    @property
    def total_requests(self) -> int:
        """Requests the population offers if no chip strands a user."""
        return self.users * self.sessions_per_user * self.turns

    def scaled(self, load_scale: float, duration_scale: float
               ) -> "SessionConfig":
        """The population ``repro serve`` knobs map onto.

        ``load_scale`` multiplies the user population and
        ``duration_scale`` the per-user conversation count (both rounded,
        floor one), mirroring what the knobs do to open-loop phases:
        more concurrent demand versus a longer experiment.
        """
        if not (
            0 < load_scale < math.inf and 0 < duration_scale < math.inf
        ):
            raise ServingError(
                "load_scale and duration_scale must be positive and finite, "
                f"got {load_scale} and {duration_scale}"
            )
        if load_scale == 1.0 and duration_scale == 1.0:
            return self
        return replace(
            self,
            users=max(1, round(self.users * load_scale)),
            sessions_per_user=max(
                1, round(self.sessions_per_user * duration_scale)
            ),
        )

    def to_dict(self) -> dict:
        """JSON-ready provenance form."""
        return {**asdict(self), "mix": dict(self.mix)}


class _User:
    """One closed-loop user: RNG stream plus conversation counters."""

    __slots__ = ("rng", "turns_left", "sessions_left", "names", "cdf")

    def __init__(self, rng, config: SessionConfig, names, cdf):
        self.rng = rng
        self.turns_left = config.turns
        self.sessions_left = config.sessions_per_user
        self.names = names
        self.cdf = cdf

    def draw_workload(self) -> str:
        """Sample this turn's workload from the mix."""
        return self.names[draw_index(self.cdf, self.rng)]


class _Population:
    """The closed-loop arrival source ``ServingSimulator._simulate`` drives.

    :meth:`bind` takes the core's ``push(at_s, user_id)`` and queues first
    turns, :meth:`submit` turns the users due at an instant into an
    arrival chunk, and :meth:`advance` moves users on when their requests
    complete or a chip failure drops them.
    """

    def __init__(self, config: SessionConfig, seed: int):
        self.config = config
        self.names = tuple(name for name, _ in config.mix)
        cdf = choice_cdf([prob for _, prob in config.mix])
        self.users = [
            _User(np.random.default_rng(seed * SEED_STRIDE + user_id),
                  config, self.names, cdf)
            for user_id in range(config.users)
        ]
        self.owner: dict[int, int] = {}  # request id -> user index
        self.submitted = 0
        self.push = None

    def bind(self, push):
        """Queue every user's first turn; return the opening arrival chunk.

        The users due at the earliest start instant submit at once and
        open the run; the rest wait in the core's heap.
        """
        self.push = push
        spread = self.config.start_spread_s
        starts = [
            float(user.rng.uniform(0.0, spread)) if spread > 0 else 0.0
            for user in self.users
        ]
        first = min(starts)
        for user_id, start in enumerate(starts):
            if start != first:
                push(start, user_id)
        return self.submit(first, [
            user_id for user_id, start in enumerate(starts) if start == first
        ])

    def submit(self, now: float, user_ids):
        """``(arrivals, workloads, ids)`` of the users submitting at ``now``.

        Ids continue the run's submission order.
        """
        ids = list(range(self.submitted, self.submitted + len(user_ids)))
        self.submitted += len(ids)
        self.owner.update(zip(ids, user_ids))
        workloads = [self.users[user_id].draw_workload() for user_id in user_ids]
        return [now] * len(ids), workloads, ids

    def advance(self, now: float, request_ids) -> None:
        """Move each request's user on at ``now``: next turn or conversation."""
        config = self.config
        for request_id in request_ids:
            user_id = self.owner.pop(request_id)
            user = self.users[user_id]
            user.turns_left -= 1
            if user.turns_left > 0:
                mean = config.think_time_s
            else:
                user.sessions_left -= 1
                if user.sessions_left <= 0:
                    continue
                user.turns_left = config.turns
                mean = config.session_gap_s
            delay = float(user.rng.exponential(mean)) if mean > 0 else 0.0
            self.push(now + delay, user_id)


def run_sessions(
    simulator,
    config: SessionConfig,
    seed: int = 0,
    telemetry_window_s: float | None = None,
) -> ServingResult:
    """Serve a closed-loop user population on the simulator's fleet.

    Runs the simulator's event core with its router, batching policy,
    service models and chaos timeline; only the arrival side differs from
    :meth:`~repro.serving.simulator.ServingSimulator.run`.  Returns a
    full-trace :class:`ServingResult` in request-id (submission) order.
    """
    if not isinstance(config, SessionConfig):
        raise ServingError(
            f"config must be a SessionConfig, got {type(config).__name__}"
        )
    population = _Population(config, seed)
    result = simulator._run_trace(
        (), population.names, telemetry_window_s, source=population
    )
    result.provenance["closed_loop"] = {"seed": seed, **config.to_dict()}
    return result
