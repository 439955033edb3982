"""Closed-loop serving control plane: autoscaling, admission, adaptive batching.

Every fleet so far is *static*: the DSE planner answers "how many chips"
once, offline, and the only way to survive a flash crowd is to provision
for its peak.  This module adds the dynamic answer — a time-stepped
controller that observes the fleet through windowed telemetry and acts on
it mid-run:

* **Autoscaling** — :data:`CONTROLLER_POLICIES` names two policies.
  ``target_util`` scales the provisioned chip count proportionally so the
  windowed busy fraction tracks a utilization setpoint;  ``queue_pid``
  runs a PID loop on outstanding work (queued + in-flight) against a
  queue-depth setpoint.  Newly provisioned chips spend ``warmup_s``
  *warming* before they accept work — the router never sees a chip that
  has not finished warming up.
* **SLO-aware admission control** — each arrival's queue-wait on its
  routed chip is estimated from the chip's pending depth, the current
  batch cap and the workload's batch-1 service time; arrivals whose
  estimate exceeds the per-workload SLO budget are *shed* at the door.
  Shed requests stay inside the conservation identity the chaos layer
  introduced: ``arrived == completed + shed + lost``.
* **Adaptive batching / routing** — under tail pressure (windowed p99
  above the SLO) the controller doubles the batching policy's
  ``max_batch_size`` toward a throughput-optimal cap; with a cold tail it
  halves it back toward latency-optimal.  Optionally it also upgrades a
  ``round_robin`` fleet to ``jsq`` routing when it observes per-chip
  queue imbalance.

:func:`run_controlled` executes an open-loop request stream under a
:class:`ControllerConfig` with its own compact scalar event loop (the same
pattern as :mod:`~repro.serving.sessions`: scale actions depend on
observed state, which rules out the pre-sorted-chunk contract of the
vectorized core) and returns an ordinary
:class:`~repro.serving.simulator.ServingResult` — so the whole
metrics/telemetry/CLI surface works unchanged, and controller-off runs
never touch this module.  Chips move through a small lifecycle::

    (new) --provision--> WARMING --warmup_s--> ACTIVE
    ACTIVE --scale-down--> DRAINING --queue empty--> PARKED
    PARKED --scale-up--> WARMING            (a cold chip re-warms)
    DRAINING --scale-up--> ACTIVE           (still warm: instant)

The controller's sensor is the telemetry window abstraction: control
ticks fire every ``interval_s`` on the same ``t // window`` grid
:mod:`~repro.serving.telemetry` uses, and each tick observes exactly the
arrivals/completions/busy-time/latency of the window it closes.  All
decisions are pure functions of observed state, so equal seeds produce
equal action logs (`same seed, same actions`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from heapq import heappop, heappush

import numpy as np

from repro.errors import ServingError
from repro.serving.chaos import OP_FAIL, OP_RECOVER, OP_SLOW_START
from repro.serving.simulator import RequestRecord, ServingResult

__all__ = ["CONTROLLER_POLICIES", "ControllerConfig", "run_controlled"]

#: registered autoscaler policy names (the CLI's --controller choices)
CONTROLLER_POLICIES = ("target_util", "queue_pid")

#: routers the dynamic-fleet loop knows how to drive; affinity routers pin
#: ownership maps to a fixed fleet shape, which autoscaling invalidates
_CONTROLLABLE_ROUTERS = ("jsq", "round_robin")

# Heap event kinds, ordered like the other cores at equal instants:
# arrivals enqueue first, completions free chips, wake-ups retry batching,
# incidents land, warm-ups activate chips, and the controller tick
# observes last — so a tick never sees a half-applied instant.
_ARRIVAL, _FREE, _WAKE, _CHAOS, _WARM, _TICK = 0, 1, 2, 3, 4, 5

# Chip lifecycle states (see the module docstring's diagram).
_WARMING, _ACTIVE, _DRAINING, _PARKED = 0, 1, 2, 3


@dataclass(frozen=True)
class ControllerConfig:
    """One controller's policy and knobs, in simulated-time units.

    ``slo_s`` anchors the SLO-aware features (admission budgets and the
    adaptive-batching setpoint); :func:`~repro.serving.scenarios.run_scenario`
    fills it from the scenario's SLO when left ``None``.  ``slo_budget_s``
    overrides the admission budget away from the SLO itself — either one
    budget for every workload or a per-workload mapping (workloads absent
    from the mapping fall back to ``slo_s``).  ``min_chips`` defaults to
    the run's initial fleet size at execution time.
    """

    policy: str = "target_util"
    interval_s: float = 0.05
    warmup_s: float = 0.05
    min_chips: int | None = None
    max_chips: int = 8
    #: target_util policy: busy-fraction setpoint and dead band
    target_utilization: float = 0.7
    deadband: float = 0.1
    #: queue_pid policy: outstanding-work setpoint and gains
    target_queue: float = 8.0
    kp: float = 0.25
    ki: float = 0.05
    kd: float = 0.0
    #: SLO the controller serves (admission + batching setpoint)
    slo_s: float | None = None
    #: admission-control queue-wait budget; None = use ``slo_s``
    slo_budget_s: float | Mapping[str, float] | None = None
    #: shed arrivals whose estimated queue wait exceeds their budget
    admission: bool = True
    #: retune the batching policy's max_batch_size from windowed p99
    adapt_batching: bool = True
    batch_min: int = 1
    batch_max: int = 32
    #: upgrade round_robin -> jsq on observed queue imbalance
    adapt_routing: bool = False
    imbalance_threshold: int = 4

    def __post_init__(self) -> None:
        if self.policy not in CONTROLLER_POLICIES:
            raise ServingError(
                f"unknown controller policy '{self.policy}'; "
                f"known: {', '.join(CONTROLLER_POLICIES)}"
            )
        if not (self.interval_s > 0 and math.isfinite(self.interval_s)):
            raise ServingError(
                f"interval_s must be finite and positive, got {self.interval_s}"
            )
        if not (self.warmup_s >= 0 and math.isfinite(self.warmup_s)):
            raise ServingError(
                f"warmup_s must be finite and >= 0, got {self.warmup_s}"
            )
        if self.min_chips is not None and self.min_chips < 1:
            raise ServingError(
                f"min_chips must be positive, got {self.min_chips}"
            )
        if self.max_chips < 1:
            raise ServingError(
                f"max_chips must be positive, got {self.max_chips}"
            )
        if self.min_chips is not None and self.min_chips > self.max_chips:
            raise ServingError(
                f"min_chips ({self.min_chips}) cannot exceed "
                f"max_chips ({self.max_chips})"
            )
        if not 0 < self.target_utilization <= 1:
            raise ServingError(
                "target_utilization must be in (0, 1], "
                f"got {self.target_utilization}"
            )
        if not self.deadband >= 0:
            raise ServingError(f"deadband must be >= 0, got {self.deadband}")
        if self.target_queue <= 0:
            raise ServingError(
                f"target_queue must be positive, got {self.target_queue}"
            )
        if self.slo_s is not None and self.slo_s <= 0:
            raise ServingError(f"slo_s must be positive, got {self.slo_s}")
        if self.batch_min < 1 or self.batch_max < self.batch_min:
            raise ServingError(
                "batch bounds need 1 <= batch_min <= batch_max, got "
                f"[{self.batch_min}, {self.batch_max}]"
            )
        if self.imbalance_threshold < 1:
            raise ServingError(
                "imbalance_threshold must be positive, "
                f"got {self.imbalance_threshold}"
            )
        if isinstance(self.slo_budget_s, Mapping):
            budgets = dict(self.slo_budget_s)
            if any(value <= 0 for value in budgets.values()):
                raise ServingError("slo_budget_s budgets must be positive")
            object.__setattr__(
                self, "slo_budget_s", tuple(sorted(budgets.items()))
            )
        elif self.slo_budget_s is not None and self.slo_budget_s <= 0:
            raise ServingError(
                f"slo_budget_s must be positive, got {self.slo_budget_s}"
            )

    def budget_for(self, workload: str) -> float | None:
        """Admission queue-wait budget for ``workload`` (None = no limit)."""
        if not self.admission:
            return None
        if isinstance(self.slo_budget_s, tuple):
            for name, value in self.slo_budget_s:
                if name == workload:
                    return value
            return self.slo_s
        if self.slo_budget_s is not None:
            return float(self.slo_budget_s)
        return self.slo_s

    def to_dict(self) -> dict:
        """JSON-ready provenance form (knobs only, no run state)."""
        budget = self.slo_budget_s
        return {
            "policy": self.policy,
            "interval_s": self.interval_s,
            "warmup_s": self.warmup_s,
            "min_chips": self.min_chips,
            "max_chips": self.max_chips,
            "target_utilization": self.target_utilization,
            "deadband": self.deadband,
            "target_queue": self.target_queue,
            "kp": self.kp,
            "ki": self.ki,
            "kd": self.kd,
            "slo_s": self.slo_s,
            "slo_budget_s": dict(budget) if isinstance(budget, tuple) else budget,
            "admission": self.admission,
            "adapt_batching": self.adapt_batching,
            "batch_min": self.batch_min,
            "batch_max": self.batch_max,
            "adapt_routing": self.adapt_routing,
            "imbalance_threshold": self.imbalance_threshold,
        }


class _Chip:
    """Mutable chip state for the controlled event loop.

    Satisfies the :class:`~repro.serving.fleet.ChipView` protocol
    (``chip_id``/``busy``/``inflight``/``queue_depth``) plus the lifecycle
    fields the autoscaler drives.
    """

    __slots__ = (
        "chip_id", "busy", "inflight", "queue", "busy_s", "served",
        "pending_wake_s", "current", "down", "factors", "mult",
        "state", "warm_seq", "created_at", "first_active_at",
    )

    def __init__(self, chip_id: int, created_at: float, active: bool):
        self.chip_id = chip_id
        self.busy = False
        self.inflight = 0
        self.queue = []
        self.busy_s = 0.0
        self.served = 0
        self.pending_wake_s = None
        #: ``(seq, dispatch_s, finish_s, batch, service_s, energy_j)``
        self.current = None
        self.down = 0
        self.factors = []
        self.mult = 1.0
        self.state = _ACTIVE if active else _WARMING
        #: warm-up generation counter; a stale _WARM event must not
        #: activate a chip whose warm-up was cancelled and restarted
        self.warm_seq = 0
        self.created_at = created_at
        self.first_active_at = created_at if active else None

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def pending(self) -> int:
        """Queued plus in-flight requests (the JSQ routing key)."""
        return len(self.queue) + self.inflight


def run_controlled(
    simulator,
    config: ControllerConfig,
    requests,
    telemetry_window_s: float | None = None,
) -> ServingResult:
    """Serve an open-loop stream under a closed-loop fleet controller.

    Reuses the simulator's batching policy, per-chip service model and
    chaos timeline; the fleet itself becomes dynamic (the simulator's
    ``num_chips`` is the *initial* provisioning, scaled between
    ``config.min_chips`` and ``config.max_chips`` at control ticks).
    Returns a full-trace :class:`ServingResult` whose ``num_chips`` counts
    every chip ever provisioned; ``provenance["controller"]`` carries the
    realized action log, peak provisioning and per-chip warm-up instants.
    """
    if not isinstance(config, ControllerConfig):
        raise ServingError(
            f"config must be a ControllerConfig, got {type(config).__name__}"
        )
    if not requests:
        raise ServingError("cannot run a controller over an empty stream")
    if simulator.fleet.is_heterogeneous:
        raise ServingError(
            "controller runs need a homogeneous fleet: autoscaling "
            "provisions interchangeable chips"
        )
    router_name = simulator.fleet.router
    if router_name not in _CONTROLLABLE_ROUTERS:
        raise ServingError(
            f"controller runs support routers {list(_CONTROLLABLE_ROUTERS)}; "
            f"'{router_name}' pins an ownership map to a fixed fleet shape"
        )
    initial = simulator.fleet.num_chips
    min_chips = config.min_chips if config.min_chips is not None else initial
    if min_chips > config.max_chips:
        raise ServingError(
            f"min_chips ({min_chips}) cannot exceed "
            f"max_chips ({config.max_chips})"
        )
    if initial > config.max_chips:
        raise ServingError(
            f"the initial fleet ({initial} chips) already exceeds "
            f"max_chips ({config.max_chips})"
        )
    model = simulator._chip_models()[0]
    policy = simulator.batching_policy
    chaos = simulator.chaos
    interval = config.interval_s

    adapt_batching = (
        config.adapt_batching
        and config.slo_s is not None
        and hasattr(policy, "max_batch_size")
        and hasattr(policy, "single_group_cap")
    )
    saved_batch = (
        (policy.max_batch_size, policy.single_group_cap)
        if adapt_batching else None
    )

    stream = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    chips = [_Chip(chip_id, 0.0, active=True) for chip_id in range(initial)]

    heap: list = []
    seq_counter = 0

    def next_seq() -> int:
        nonlocal seq_counter
        seq_counter += 1
        return seq_counter

    for request in stream:
        heappush(heap, (request.arrival_s, _ARRIVAL, next_seq(), request))
    if chaos is not None:
        for ev_time, op, ev_chip, ev_mult in chaos.compile(initial):
            heappush(heap, (ev_time, _CHAOS, next_seq(), (op, ev_chip, ev_mult)))
    heappush(heap, (interval, _TICK, next_seq(), None))

    arrived = len(stream)
    remaining_arrivals = arrived
    records: list[RequestRecord] = []
    energy = 0.0
    num_batches = 0
    first_arrival = stream[0].arrival_s
    horizon = 0.0
    lost = 0
    shed = 0
    shed_admission = 0
    shed_times: list[float] = []
    incident_log: list[dict] = []
    actions: list[dict] = []
    scale_ups = 0
    scale_downs = 0
    current_router = router_name
    rr_next = 0
    peak = initial

    # Windowed sensor accumulators, reset at every control tick.
    win_busy_s = 0.0
    win_completions = 0
    win_latencies: list[float] = []
    # queue_pid state
    pid_integral = 0.0
    pid_prev_error: float | None = None

    est_service: dict[str, float] = {}

    def service_estimate(workload: str) -> float:
        """Memoized batch-1 service time (the admission-control unit)."""
        est = est_service.get(workload)
        if est is None:
            est = float(model.service_seconds(workload, 1))
            est_service[workload] = est
        return est

    def provisioned_count() -> int:
        """Capacity the policy steers: serving plus warming chips.

        Draining chips are excluded — they are capacity already decided
        away — which (with warming chips cancelled before active ones on
        scale-down) guarantees at least ``min_chips`` chips stay ACTIVE.
        """
        return sum(1 for chip in chips if chip.state in (_WARMING, _ACTIVE))

    def physical_count() -> int:
        """Chips occupying resources right now (peak-provisioning metric)."""
        return sum(
            1 for chip in chips
            if chip.state in (_WARMING, _ACTIVE, _DRAINING)
        )

    def eligible_chips() -> list:
        """Chips the router may choose: warm, not draining, not parked."""
        eligible = [chip for chip in chips if chip.state == _ACTIVE]
        if eligible:
            return eligible
        # Defensive: the scale logic keeps >= min_chips chips ACTIVE, but
        # routing must never crash — fall back to warming, then any chip.
        return [chip for chip in chips if chip.state == _WARMING] or chips

    def route(request) -> "_Chip":
        nonlocal rr_next
        eligible = eligible_chips()
        if current_router == "jsq":
            return min(eligible, key=lambda chip: (chip.pending, chip.chip_id))
        chosen = eligible[rr_next % len(eligible)]
        rr_next += 1
        return chosen

    def dispatch(chip: "_Chip", now: float) -> None:
        """Launch the policy's batch on an idle, healthy, serving chip."""
        if chip.busy or chip.down or not chip.queue:
            if (
                chip.state == _DRAINING
                and not chip.busy
                and not chip.queue
            ):
                chip.state = _PARKED
            return
        if chip.state not in (_ACTIVE, _DRAINING):
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

    def drop_batch(chip: "_Chip") -> int:
        """Kill the in-flight batch (chip failure): requests are lost."""
        batch = chip.current[3]
        chip.current = None
        chip.busy = False
        chip.inflight = 0
        return len(batch)

    def drop_queue(chip: "_Chip", now: float) -> int:
        """Shed every queued request (chip failure drops its queue)."""
        dropped = len(chip.queue)
        shed_times.extend([now] * dropped)
        chip.queue.clear()
        if chip.state == _DRAINING and not chip.busy:
            chip.state = _PARKED
        return dropped

    def start_warming(chip: "_Chip", now: float) -> None:
        """(Re)provision a cold chip; it serves after ``warmup_s``."""
        if config.warmup_s == 0:
            chip.state = _ACTIVE
            if chip.first_active_at is None:
                chip.first_active_at = now
            return
        chip.state = _WARMING
        chip.warm_seq += 1
        heappush(
            heap,
            (now + config.warmup_s, _WARM, next_seq(),
             (chip.chip_id, chip.warm_seq)),
        )

    def scale_to(desired: int, now: float) -> None:
        """Apply one scale decision, preferring warm capacity first."""
        nonlocal scale_ups, scale_downs, peak
        provisioned = provisioned_count()
        if desired > provisioned:
            reactivated = 0
            added = 0
            need = desired - provisioned
            # Draining chips are still warm: un-drain them for free.
            for chip in chips:
                if need and chip.state == _DRAINING:
                    chip.state = _ACTIVE
                    reactivated += 1
                    need -= 1
            # Parked chips went cold: they re-warm like new capacity.
            for chip in chips:
                if need and chip.state == _PARKED:
                    start_warming(chip, now)
                    added += 1
                    need -= 1
            while need:
                chip = _Chip(len(chips), now, active=config.warmup_s == 0)
                chips.append(chip)
                if config.warmup_s > 0:
                    start_warming(chip, now)
                added += 1
                need -= 1
            scale_ups += 1
            peak = max(peak, physical_count())
            actions.append({
                "at_s": now, "action": "scale_up", "added": added,
                "reactivated": reactivated, "provisioned": provisioned_count(),
            })
        elif desired < provisioned:
            need = provisioned - desired
            removed = 0
            # Cancel still-warming chips first (nothing runs on them yet),
            # newest first, then drain the newest active chips.
            for chip in reversed(chips):
                if need and chip.state == _WARMING:
                    chip.state = _PARKED
                    removed += 1
                    need -= 1
            for chip in reversed(chips):
                if need and chip.state == _ACTIVE:
                    chip.state = _DRAINING
                    if not chip.busy and not chip.queue:
                        chip.state = _PARKED
                    removed += 1
                    need -= 1
            if removed:
                scale_downs += 1
                actions.append({
                    "at_s": now, "action": "scale_down", "removed": removed,
                    "provisioned": provisioned_count(),
                })

    def control_tick(now: float) -> None:
        """Observe the closed window, decide, act, reset the sensor."""
        nonlocal win_busy_s, win_completions, win_latencies
        nonlocal pid_integral, pid_prev_error, current_router
        active = eligible_chips()
        active_count = max(1, len(active))
        provisioned = provisioned_count()
        outstanding = sum(chip.pending for chip in chips)
        utilization = win_busy_s / (interval * active_count)

        if config.policy == "target_util":
            target = config.target_utilization
            desired = provisioned
            if utilization > target + config.deadband:
                desired = math.ceil(provisioned * utilization / target)
            elif (
                utilization < target - config.deadband and outstanding == 0
            ):
                desired = (
                    math.ceil(provisioned * utilization / target)
                    if utilization > 0 else min_chips
                )
            desired = max(min_chips, min(config.max_chips, desired))
        else:  # queue_pid
            error = outstanding - config.target_queue
            pid_integral = max(-64.0, min(64.0, pid_integral + error * interval))
            derivative = (
                (error - pid_prev_error) / interval
                if pid_prev_error is not None else 0.0
            )
            pid_prev_error = error
            signal = (
                config.kp * error
                + config.ki * pid_integral
                + config.kd * derivative
            )
            desired = max(
                min_chips,
                min(config.max_chips, provisioned + int(round(signal))),
            )
        if desired != provisioned:
            scale_to(desired, now)

        if adapt_batching and win_latencies:
            p99 = float(np.percentile(np.array(win_latencies, dtype=float), 99))
            cap = policy.max_batch_size
            if p99 > config.slo_s and cap < config.batch_max:
                cap = min(config.batch_max, cap * 2)
            elif p99 < 0.5 * config.slo_s and cap > config.batch_min:
                cap = max(config.batch_min, cap // 2)
            if cap != policy.max_batch_size:
                policy.max_batch_size = cap
                policy.single_group_cap = cap
                actions.append({
                    "at_s": now, "action": "batch", "max_batch_size": cap,
                })

        if config.adapt_routing and current_router == "round_robin":
            pendings = [chip.pending for chip in active] or [0]
            if max(pendings) - min(pendings) >= config.imbalance_threshold:
                current_router = "jsq"
                actions.append({
                    "at_s": now, "action": "router", "router": "jsq",
                })

        win_busy_s = 0.0
        win_completions = 0
        win_latencies = []

        # Keep ticking while work can still arrive or progress; queues
        # stranded on never-recovering chips do not hold the clock open.
        if remaining_arrivals or any(
            chip.busy or (chip.queue and not chip.down) for chip in chips
        ):
            heappush(heap, (now + interval, _TICK, next_seq(), None))

    while heap:
        now, kind, seq, payload = heappop(heap)
        if kind == _ARRIVAL:
            remaining_arrivals -= 1
            request = payload
            chip = route(request)
            budget = config.budget_for(request.workload)
            if budget is not None and chip.pending:
                est = service_estimate(request.workload)
                cap = getattr(policy, "max_batch_size", None) or 1
                batches_ahead = -(-chip.pending // cap)  # ceil division
                if batches_ahead * est > budget:
                    shed += 1
                    shed_admission += 1
                    shed_times.append(now)
                    continue
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
            win_busy_s += service_s
            win_completions += len(batch)
            for request in batch:
                records.append(RequestRecord(
                    request.request_id, request.workload, chip.chip_id,
                    request.arrival_s, dispatch_s, finish_s, len(batch),
                ))
                win_latencies.append(finish_s - request.arrival_s)
            dispatch(chip, now)
        elif kind == _WAKE:
            chip = chips[payload]
            if chip.pending_wake_s is not None and chip.pending_wake_s <= now:
                chip.pending_wake_s = None
            dispatch(chip, now)
        elif kind == _CHAOS:
            op, ev_chip, ev_mult = payload
            chip = chips[ev_chip]
            if op == OP_FAIL:
                chip.down += 1
                lost_here = drop_batch(chip) if chip.busy else 0
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
        elif kind == _WARM:
            chip_id, warm_seq = payload
            chip = chips[chip_id]
            if chip.state == _WARMING and chip.warm_seq == warm_seq:
                chip.state = _ACTIVE
                if chip.first_active_at is None:
                    chip.first_active_at = now
        else:  # _TICK
            control_tick(now)

    # Requests still queued sit on chips whose failure window never
    # closed; conservation over arrivals must still hold, so count them
    # shed (mirrors the sessions loop's stranded sweep).
    for chip in chips:
        if chip.queue:
            stranded = len(chip.queue)
            chip.queue.clear()
            shed += stranded
            shed_times.extend([horizon] * stranded)
            incident_log.append({
                "at_s": horizon, "kind": "stranded",
                "chip": chip.chip_id, "requests_shed": stranded,
            })
    if len(records) + lost + shed != arrived:
        raise ServingError(
            f"controlled run lost requests: {len(records)} served + {lost} "
            f"lost + {shed} shed of {arrived}"
        )

    if saved_batch is not None:
        # The policy object belongs to the caller; leave it as configured.
        final_batch = policy.max_batch_size
        policy.max_batch_size, policy.single_group_cap = saved_batch
    else:
        final_batch = getattr(policy, "max_batch_size", None)

    records.sort(key=lambda record: record.request_id)
    provenance = simulator._provenance(len(records), None)
    provenance["controller"] = {
        **config.to_dict(),
        "min_chips": min_chips,
        "initial_chips": initial,
        "peak_chips": peak,
        "final_active": sum(1 for chip in chips if chip.state == _ACTIVE),
        "final_router": current_router,
        "final_max_batch_size": final_batch,
        "scale_ups": scale_ups,
        "scale_downs": scale_downs,
        "shed_admission": shed_admission,
        "actions": actions,
        "chips": [
            {
                "chip": chip.chip_id,
                "created_at_s": chip.created_at,
                "first_active_at_s": chip.first_active_at,
            }
            for chip in chips
        ],
    }
    backend = simulator.fleet.chip_backends[0]
    result = ServingResult(
        records=tuple(records),
        num_chips=len(chips),
        chip_busy_s=tuple(chip.busy_s for chip in chips),
        chip_requests=tuple(chip.served for chip in chips),
        energy_joules=energy,
        num_batches=num_batches,
        horizon_s=horizon,
        first_arrival_s=first_arrival,
        chip_backends=(backend,) * len(chips),
        provenance=provenance,
        requests_lost=lost,
        requests_shed=shed,
        incidents=tuple(incident_log),
    )
    if telemetry_window_s is None:
        return result
    from repro.serving.telemetry import _series_from_records

    # The dynamic fleet can outgrow the simulator's static chip-model
    # list, so derive the series directly over the homogeneous model;
    # admission control and chip failures fill the ``shed`` field.
    series = _series_from_records(
        result, telemetry_window_s, [model] * len(chips), shed_s=shed_times
    )
    return replace(result, telemetry=series)
