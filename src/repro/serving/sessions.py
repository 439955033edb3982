"""Closed-loop session traffic: users whose offered load reacts to latency.

Every preset scenario so far is *open loop* — arrivals are generated ahead
of time and keep coming no matter how slow the fleet gets.  Real chat and
agent traffic is closed loop: a user submits a request, reads the answer,
thinks, and only then submits the next turn, so the offered rate falls as
observed latency grows.  This module adds that feedback loop as a traffic
*source* in front of the same routing/batching/service machinery the open
loop uses.

:class:`SessionConfig` describes a fixed population of users, each running
``sessions_per_user`` conversations of ``turns`` requests with exponential
think times between turns and gaps between conversations.
:func:`run_sessions` executes the population against a
:class:`~repro.serving.simulator.ServingSimulator`'s fleet with its own
compact scalar event loop (arrival instants depend on completion instants,
which rules out the pre-sorted-chunk contract of the open-loop core) and
returns an ordinary :class:`~repro.serving.simulator.ServingResult`, so
the whole metrics/telemetry/CLI surface works unchanged.

Determinism: user ``u`` of a run seeded ``s`` draws from
``default_rng(s * SEED_STRIDE + u)`` in a fixed per-user order (start
offset, then workload/think pairs), so the draw sequence — and therefore
the trace, given the fleet — is a pure function of the seed.  Chaos
timelines inject the same fail/straggler semantics as the open loop; a
lost or shed request unblocks its user at the drop instant (the user saw
an error and moves on), keeping conservation over *submitted* requests:
``arrived == completed + lost + shed``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.errors import ServingError
from repro.serving.chaos import OP_FAIL, OP_RECOVER, OP_SLOW_START
from repro.serving.simulator import RequestRecord, ServingResult
from repro.serving.traffic import (
    SEED_STRIDE,
    Request,
    check_mix_weights,
    choice_cdf,
    draw_index,
)

__all__ = ["SessionConfig", "run_sessions"]

# Heap event kinds, ordered like the open-loop core at equal instants:
# submissions enqueue first, completions next, wake-ups, then incidents —
# so a batch finishing exactly at a failure instant completes normally.
_SUBMIT, _FREE, _WAKE, _CHAOS = 0, 1, 2, 3


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
        if self.users < 1:
            raise ServingError(f"users must be positive, got {self.users}")
        if self.turns < 1:
            raise ServingError(f"turns must be positive, got {self.turns}")
        if self.sessions_per_user < 1:
            raise ServingError(
                f"sessions_per_user must be positive, "
                f"got {self.sessions_per_user}"
            )
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
        if load_scale <= 0 or duration_scale <= 0:
            raise ServingError("load_scale and duration_scale must be positive")
        if load_scale == 1.0 and duration_scale == 1.0:
            return self
        return SessionConfig(
            users=max(1, round(self.users * load_scale)),
            turns=self.turns,
            sessions_per_user=max(
                1, round(self.sessions_per_user * duration_scale)
            ),
            think_time_s=self.think_time_s,
            session_gap_s=self.session_gap_s,
            start_spread_s=self.start_spread_s,
            mix=self.mix,
        )

    def to_dict(self) -> dict:
        """JSON-ready provenance form."""
        return {
            "users": self.users,
            "turns": self.turns,
            "sessions_per_user": self.sessions_per_user,
            "think_time_s": self.think_time_s,
            "session_gap_s": self.session_gap_s,
            "start_spread_s": self.start_spread_s,
            "mix": dict(self.mix),
        }


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


class _Chip:
    """Mutable chip state for the sessions event loop.

    Satisfies the :class:`~repro.serving.fleet.ChipView` protocol the
    routers observe (``chip_id``/``busy``/``inflight``/``queue_depth``).
    """

    __slots__ = ("chip_id", "busy", "inflight", "queue", "busy_s", "served",
                 "pending_wake_s", "current", "down", "factors", "mult")

    def __init__(self, chip_id: int):
        self.chip_id = chip_id
        self.busy = False
        self.inflight = 0
        self.queue: list[Request] = []
        self.busy_s = 0.0
        self.served = 0
        self.pending_wake_s: float | None = None
        #: ``(seq, dispatch_s, finish_s, batch)`` of the in-flight batch
        self.current: tuple | None = None
        self.down = 0
        self.factors: list[float] = []
        self.mult = 1.0

    @property
    def queue_depth(self) -> int:
        return len(self.queue)


def run_sessions(
    simulator,
    config: SessionConfig,
    seed: int = 0,
    telemetry_window_s: float | None = None,
) -> ServingResult:
    """Serve a closed-loop user population on the simulator's fleet.

    Reuses the simulator's fleet router, batching policy, per-chip service
    models and chaos timeline; only the arrival side differs from
    :meth:`~repro.serving.simulator.ServingSimulator.run` (requests are
    born from completions plus think time instead of a pre-generated
    stream).  Returns a full-trace :class:`ServingResult` whose records
    are in request-id (submission) order.
    """
    if not isinstance(config, SessionConfig):
        raise ServingError(
            f"config must be a SessionConfig, got {type(config).__name__}"
        )
    chip_models = simulator._chip_models()
    names = tuple(name for name, _ in config.mix)
    cdf = choice_cdf([prob for _, prob in config.mix])
    router = simulator._make_router(names, chip_models)
    policy = simulator.batching_policy
    chips = [_Chip(chip_id) for chip_id in range(simulator.fleet.num_chips)]
    chaos = simulator.chaos

    heap: list[tuple[float, int, int, object]] = []
    seq_counter = 0

    def next_seq() -> int:
        nonlocal seq_counter
        seq_counter += 1
        return seq_counter

    users: list[_User] = []
    for user_id in range(config.users):
        rng = np.random.default_rng(seed * SEED_STRIDE + user_id)
        user = _User(rng, config, names, cdf)
        users.append(user)
        start = float(rng.uniform(0.0, config.start_spread_s)) \
            if config.start_spread_s > 0 else 0.0
        heappush(heap, (start, _SUBMIT, next_seq(), user_id))
    if chaos is not None:
        for ev_time, op, ev_chip, ev_mult in chaos.compile(len(chips)):
            heappush(heap, (ev_time, _CHAOS, next_seq(),
                            (op, ev_chip, ev_mult)))

    next_rid = 0
    #: request_id -> user index, for unblocking on completion or drop
    owner: dict[int, int] = {}
    records: list[RequestRecord] = []
    energy = 0.0
    num_batches = 0
    first_arrival: float | None = None
    horizon = 0.0
    lost = 0
    shed = 0
    incident_log: list[dict] = []

    def advance_user(user_id: int, now: float) -> None:
        """Schedule the user's next turn after a completion (or drop)."""
        user = users[user_id]
        user.turns_left -= 1
        if user.turns_left > 0:
            delay = float(user.rng.exponential(config.think_time_s)) \
                if config.think_time_s > 0 else 0.0
            heappush(heap, (now + delay, _SUBMIT, next_seq(), user_id))
            return
        user.sessions_left -= 1
        if user.sessions_left > 0:
            user.turns_left = config.turns
            delay = float(user.rng.exponential(config.session_gap_s)) \
                if config.session_gap_s > 0 else 0.0
            heappush(heap, (now + delay, _SUBMIT, next_seq(), user_id))

    def dispatch(chip: _Chip, now: float) -> None:
        """Launch the policy's batch on an idle, healthy chip."""
        if chip.busy or chip.down or not chip.queue:
            return
        decision = policy.select(chip.queue, now)
        batch = decision.batch
        if batch is None:
            wake = decision.wake_s
            if wake is not None and (
                chip.pending_wake_s is None or wake < chip.pending_wake_s
            ):
                chip.pending_wake_s = wake
                heappush(heap, (wake, _WAKE, next_seq(), chip.chip_id))
            return
        members = set(id(request) for request in batch)
        chip.queue = [
            request for request in chip.queue if id(request) not in members
        ]
        size = len(batch)
        workload = batch[0].workload
        model = chip_models[chip.chip_id]
        service_s = model.service_seconds(workload, size)
        energy_j = model.energy_joules(workload, size)
        if chip.mult != 1.0:
            service_s *= chip.mult
            energy_j *= chip.mult
        finish = now + service_s
        seq = next_seq()
        chip.current = (seq, now, finish, tuple(batch), service_s, energy_j)
        chip.busy = True
        chip.inflight = size
        heappush(heap, (finish, _FREE, seq, chip.chip_id))

    def drop_batch(chip: _Chip, now: float) -> int:
        """Kill the in-flight batch; unblock its users at ``now``."""
        _, _, _, batch, _, _ = chip.current
        chip.current = None
        chip.busy = False
        chip.inflight = 0
        for request in batch:
            advance_user(owner.pop(request.request_id), now)
        return len(batch)

    def drop_queue(chip: _Chip, now: float) -> int:
        """Shed every queued request; unblock their users at ``now``."""
        dropped = len(chip.queue)
        for request in chip.queue:
            advance_user(owner.pop(request.request_id), now)
        chip.queue.clear()
        return dropped

    while heap:
        now, kind, seq, payload = heappop(heap)
        if kind == _SUBMIT:
            user = users[payload]
            workload = user.draw_workload()
            request = Request(next_rid, workload, now)
            owner[next_rid] = payload
            next_rid += 1
            if first_arrival is None:
                first_arrival = now
            chip = chips[router.route(request, chips)]
            chip.queue.append(request)
            dispatch(chip, now)
        elif kind == _FREE:
            chip = chips[payload]
            entry = chip.current
            if entry is None or entry[0] != seq:
                continue  # stale completion of a killed batch
            _, dispatch_s, finish_s, batch, service_s, energy_j = entry
            chip.current = None
            chip.busy = False
            chip.inflight = 0
            if finish_s > horizon:
                horizon = finish_s
            energy += energy_j
            num_batches += 1
            chip.busy_s += service_s
            chip.served += len(batch)
            for request in batch:
                records.append(RequestRecord(
                    request.request_id, request.workload, chip.chip_id,
                    request.arrival_s, dispatch_s, finish_s, len(batch),
                ))
                advance_user(owner.pop(request.request_id), finish_s)
            dispatch(chip, now)
        elif kind == _WAKE:
            chip = chips[payload]
            if chip.pending_wake_s is not None and chip.pending_wake_s <= now:
                chip.pending_wake_s = None
            dispatch(chip, now)
        else:  # _CHAOS
            op, ev_chip, ev_mult = payload
            chip = chips[ev_chip]
            if op == OP_FAIL:
                chip.down += 1
                lost_here = drop_batch(chip, now) if chip.busy else 0
                shed_here = drop_queue(chip, now)
                lost += lost_here
                shed += shed_here
                incident_log.append({
                    "at_s": now, "kind": "fail", "chip": ev_chip,
                    "requests_lost": lost_here, "requests_shed": shed_here,
                })
            elif op == OP_RECOVER:
                chip.down -= 1
                incident_log.append(
                    {"at_s": now, "kind": "recover", "chip": ev_chip}
                )
                if not chip.down:
                    dispatch(chip, now)
            elif op == OP_SLOW_START:
                chip.factors.append(ev_mult)
                chip.mult = math.prod(chip.factors)
                incident_log.append({
                    "at_s": now, "kind": "slow", "chip": ev_chip,
                    "multiplier": ev_mult,
                })
            else:  # OP_SLOW_END
                chip.factors.remove(ev_mult)
                chip.mult = math.prod(chip.factors) if chip.factors else 1.0
                incident_log.append({
                    "at_s": now, "kind": "slow_end", "chip": ev_chip,
                    "multiplier": ev_mult,
                })

    # Requests still queued after the heap drained sit on chips whose
    # failure window never closed; their users never advance (the
    # conversation died with the chip) but conservation over submissions
    # must still hold, so count them shed.
    for chip in chips:
        if chip.queue:
            stranded = len(chip.queue)
            for request in chip.queue:
                owner.pop(request.request_id)
            chip.queue.clear()
            shed += stranded
            incident_log.append({
                "at_s": horizon, "kind": "stranded",
                "chip": chip.chip_id, "requests_shed": stranded,
            })
    if len(records) + lost + shed != next_rid:
        raise ServingError(
            f"session run lost requests: {len(records)} served + {lost} lost "
            f"+ {shed} shed of {next_rid}"
        )

    records.sort(key=lambda record: record.request_id)
    provenance = simulator._provenance(len(records), None)
    provenance["closed_loop"] = {"seed": seed, **config.to_dict()}
    result = ServingResult(
        records=tuple(records),
        num_chips=len(chips),
        chip_busy_s=tuple(chip.busy_s for chip in chips),
        chip_requests=tuple(chip.served for chip in chips),
        energy_joules=energy,
        num_batches=num_batches,
        horizon_s=horizon,
        first_arrival_s=first_arrival or 0.0,
        chip_backends=tuple(simulator.fleet.chip_backends),
        provenance=provenance,
        requests_lost=lost,
        requests_shed=shed,
        incidents=tuple(incident_log),
    )
    # Telemetry derives post-hoc from the completed records (the same
    # path sharded open-loop runs use); dropped requests surface in the
    # resilience metrics rather than the per-window arrival counts.
    return simulator._attach_telemetry(result, telemetry_window_s)
