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

:func:`run_controlled` serves an open-loop request stream under a
:class:`ControllerConfig` on the serving event core itself: it builds a
:class:`_Controller` and hands it to the simulator's whole-trace driver,
which passes it to ``ServingSimulator._simulate`` as a private hook.  The
core keeps the event heap, routing, batching, dispatch, chaos and
accounting, and the driver builds the records, provenance and telemetry
exactly as for :meth:`~repro.serving.simulator.ServingSimulator.run`;
this module keeps the decisions — the chip lifecycle, admission, the
policy math, batch retuning and the routing upgrade.  The run returns an
ordinary :class:`~repro.serving.simulator.ServingResult`, so the whole
metrics/telemetry/CLI surface works unchanged.  Chips move through a
small lifecycle::

    (new) --provision--> WARMING --warmup_s--> ACTIVE
    ACTIVE --scale-down--> DRAINING --queue empty--> PARKED
    PARKED --scale-up--> WARMING            (a cold chip re-warms)
    DRAINING --scale-up--> ACTIVE           (still warm: instant)

The controller's sensor is the telemetry window abstraction: control
ticks fire every ``interval_s`` on the same ``t // window`` grid
:mod:`~repro.serving.telemetry` uses, and each tick observes exactly the
busy time and latencies of the completions in the window it closes.  All
decisions are pure functions of observed state, so equal seeds produce
equal action logs (`same seed, same actions`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving._checks import check_number
from repro.serving.simulator import ServingResult, request_columns

__all__ = ["CONTROLLER_POLICIES", "ControllerConfig", "run_controlled"]

#: registered autoscaler policy names (the CLI's --controller choices)
CONTROLLER_POLICIES = ("target_util", "queue_pid")

#: routers the dynamic-fleet loop knows how to drive; affinity routers pin
#: ownership maps to a fixed fleet shape, which autoscaling invalidates
_CONTROLLABLE_ROUTERS = ("jsq", "round_robin")

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
        counts = ("max_chips", "batch_min", "batch_max", "imbalance_threshold")
        if self.min_chips is not None:
            counts = ("min_chips", *counts)
        for name in counts:
            check_number(name, getattr(self, name), low=1, integer=True)
        for name in ("kp", "ki", "kd"):
            check_number(name, getattr(self, name))
        for name in ("interval_s", "target_utilization", "target_queue"):
            check_number(name, getattr(self, name), low=0, strict=True)
        for name in ("warmup_s", "deadband"):
            check_number(name, getattr(self, name), low=0)
        if self.slo_s is not None:
            check_number("slo_s", self.slo_s, low=0, strict=True)
        if self.min_chips is not None and self.min_chips > self.max_chips:
            raise ServingError(
                f"min_chips ({self.min_chips}) cannot exceed "
                f"max_chips ({self.max_chips})"
            )
        if self.target_utilization > 1:
            raise ServingError(
                "target_utilization must be in (0, 1], "
                f"got {self.target_utilization}"
            )
        if self.batch_max < self.batch_min:
            raise ServingError(
                "batch bounds need 1 <= batch_min <= batch_max, got "
                f"[{self.batch_min}, {self.batch_max}]"
            )
        # A tuple is the normalized mapping, as ``dataclasses.replace`` passes it.
        if isinstance(self.slo_budget_s, (Mapping, tuple)):
            budgets = dict(self.slo_budget_s)
            for budget in budgets.values():
                check_number("slo_budget_s budgets", budget, low=0, strict=True)
            object.__setattr__(
                self, "slo_budget_s", tuple(sorted(budgets.items()))
            )
        elif self.slo_budget_s is not None:
            check_number("slo_budget_s", self.slo_budget_s, low=0, strict=True)

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


class _Controller:
    """The decision half of one controlled run.

    ``ServingSimulator._simulate`` owns the chips (a pool of ``max_chips``
    of which the controller provisions a prefix, in chip-id order), the
    event heap, routing, dispatch, chaos and accounting.  It calls this
    object's hooks: :meth:`bind` once, :meth:`admits` at enqueue,
    :meth:`completed` when a batch's ``_FREE`` pops, :meth:`park_if_idle`
    after a chip failure, :meth:`warm` on ``_WARM`` and :meth:`tick` on
    ``_TICK``, re-reading :meth:`active_chips` and :attr:`router` when a
    hook reports a change.  Everything here is per-run state; lifecycle
    lists are indexed by chip id.
    """

    def __init__(self, config, policy, model, router, initial, min_chips):
        self.config = config
        self.initial_chips = initial
        self.min_chips = min_chips
        self.policy = policy
        self.model = model
        #: ``"jsq"`` or ``"round_robin"`` (upgraded on observed imbalance)
        self.router = router
        self.adapt_batching = (
            config.adapt_batching
            and config.slo_s is not None
            and hasattr(policy, "max_batch_size")
            and hasattr(policy, "single_group_cap")
        )
        self.state = [_ACTIVE] * initial
        #: warm-up generation counter; a stale _WARM event must not
        #: activate a chip whose warm-up was cancelled and restarted
        self.warm_seq = [0] * initial
        self.created_at = [0.0] * initial
        self.first_active_at: list[float | None] = [0.0] * initial
        self.actions: list[dict] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.peak = initial
        self.shed_admission = 0
        # Windowed sensors, reset at every control tick, and PID state.
        self.win_busy_s = 0.0
        self.win_latencies: list[float] = []
        self.pid_integral = 0.0
        self.pid_prev_error: float | None = None
        self.est_service: dict[str, float] = {}

    def bind(self, chips, schedule_warm) -> None:
        """Attach the core's chip pool and its ``_WARM`` scheduler."""
        self.chips = chips
        self.schedule_warm = schedule_warm

    def active_chips(self) -> list:
        """Chips the router may choose: warm, not draining, not parked.

        Never empty: scale-downs cancel warming chips before draining
        active ones and never go below ``min_chips >= 1``.
        """
        return [self.chips[i] for i, s in enumerate(self.state) if s == _ACTIVE]

    def admits(self, workload: str, pending: int) -> bool:
        """SLO-aware admission of an arrival routed to a chip.

        The queue wait is estimated from the chip's pending depth, the
        current batch cap and the workload's batch-1 service time.
        """
        budget = self.config.budget_for(workload)
        if budget is None or not pending:
            return True
        est = self.est_service.get(workload)
        if est is None:
            est = float(self.model.service_seconds(workload, 1))
            self.est_service[workload] = est
        cap = getattr(self.policy, "max_batch_size", None) or 1
        if -(-pending // cap) * est > budget:  # ceil division
            self.shed_admission += 1
            return False
        return True

    def completed(self, chip, service_s: float, finish_s: float, arrivals):
        """Sense a finished batch (called after its chip re-dispatched)."""
        self.win_busy_s += service_s
        self.win_latencies.extend([finish_s - arrival for arrival in arrivals])
        self.park_if_idle(chip)

    def park_if_idle(self, chip) -> None:
        """A draining chip parks once nothing is queued or executing on it."""
        if self.state[chip.chip_id] == _DRAINING and not (
            chip.busy or chip.depth
        ):
            self.state[chip.chip_id] = _PARKED

    def warm(self, now: float, payload) -> bool:
        """A warm-up ends; True when it activated its chip."""
        chip_id, warm_seq = payload
        if self.state[chip_id] != _WARMING or self.warm_seq[chip_id] != warm_seq:
            return False
        self._activate(chip_id, now)
        return True

    def _activate(self, chip_id: int, now: float) -> None:
        self.state[chip_id] = _ACTIVE
        if self.first_active_at[chip_id] is None:
            self.first_active_at[chip_id] = now

    def _provisioned(self) -> int:
        """Capacity the policy steers: serving plus warming chips.

        Draining chips are excluded — they are capacity already decided
        away — which (with warming chips cancelled before active ones on
        scale-down) guarantees at least ``min_chips`` chips stay ACTIVE.
        """
        return sum(1 for state in self.state if state in (_WARMING, _ACTIVE))

    def _start_warming(self, chip_id: int, now: float) -> None:
        """(Re)provision a cold chip; it serves after ``warmup_s``."""
        warmup_s = self.config.warmup_s
        if warmup_s == 0:
            self._activate(chip_id, now)
            return
        self.state[chip_id] = _WARMING
        self.warm_seq[chip_id] += 1
        self.schedule_warm(now + warmup_s, (chip_id, self.warm_seq[chip_id]))

    def _scale_to(self, desired: int, now: float) -> None:
        """Apply one scale decision, preferring warm capacity first."""
        state = self.state
        provisioned = self._provisioned()
        if desired > provisioned:
            reactivated = 0
            added = 0
            need = desired - provisioned
            # Draining chips are still warm: un-drain them for free.
            for chip_id in range(len(state)):
                if need and state[chip_id] == _DRAINING:
                    state[chip_id] = _ACTIVE
                    reactivated += 1
                    need -= 1
            # Parked chips went cold: they re-warm like new capacity.
            for chip_id in range(len(state)):
                if need and state[chip_id] == _PARKED:
                    self._start_warming(chip_id, now)
                    added += 1
                    need -= 1
            # Then provision the next chips of the pool.
            while need:
                state.append(_WARMING)
                self.warm_seq.append(0)
                self.created_at.append(now)
                self.first_active_at.append(None)
                self._start_warming(len(state) - 1, now)
                added += 1
                need -= 1
            self.scale_ups += 1
            self.peak = max(
                self.peak, sum(1 for value in state if value != _PARKED)
            )
            self.actions.append({
                "at_s": now, "action": "scale_up", "added": added,
                "reactivated": reactivated,
                "provisioned": self._provisioned(),
            })
        elif desired < provisioned:
            need = provisioned - desired
            removed = 0
            # Cancel still-warming chips first (nothing runs on them yet),
            # newest first, then drain the newest active chips.
            for chip_id in reversed(range(len(state))):
                if need and state[chip_id] == _WARMING:
                    state[chip_id] = _PARKED
                    removed += 1
                    need -= 1
            for chip_id in reversed(range(len(state))):
                if need and state[chip_id] == _ACTIVE:
                    state[chip_id] = _DRAINING
                    self.park_if_idle(self.chips[chip_id])
                    removed += 1
                    need -= 1
            if removed:
                self.scale_downs += 1
                self.actions.append({
                    "at_s": now, "action": "scale_down", "removed": removed,
                    "provisioned": self._provisioned(),
                })

    def tick(self, now: float) -> bool:
        """Observe the closed window, decide, act, reset the sensor.

        Returns True when an action was taken.
        """
        config = self.config
        interval = config.interval_s
        taken = len(self.actions)
        active = self.active_chips()
        provisioned = self._provisioned()
        outstanding = sum(
            chip.pending for chip in self.chips[:len(self.state)]
        )
        utilization = self.win_busy_s / (interval * len(active))

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
                    if utilization > 0 else self.min_chips
                )
        else:  # queue_pid
            error = outstanding - config.target_queue
            self.pid_integral = max(
                -64.0, min(64.0, self.pid_integral + error * interval)
            )
            derivative = (
                (error - self.pid_prev_error) / interval
                if self.pid_prev_error is not None else 0.0
            )
            self.pid_prev_error = error
            signal = (
                config.kp * error
                + config.ki * self.pid_integral
                + config.kd * derivative
            )
            # Clamping the step first changes no decision (the result is
            # clamped to the chip bounds anyway) but keeps a huge gain
            # from overflowing the integer conversion.
            step = max(-config.max_chips, min(config.max_chips, signal))
            desired = provisioned + int(round(step))
        desired = max(self.min_chips, min(config.max_chips, desired))
        if desired != provisioned:
            self._scale_to(desired, now)

        policy = self.policy
        if self.adapt_batching and self.win_latencies:
            p99 = float(np.percentile(np.array(self.win_latencies), 99))
            cap = policy.max_batch_size
            if p99 > config.slo_s and cap < config.batch_max:
                cap = min(config.batch_max, cap * 2)
            elif p99 < 0.5 * config.slo_s and cap > config.batch_min:
                cap = max(config.batch_min, cap // 2)
            if cap != policy.max_batch_size:
                policy.max_batch_size = cap
                policy.single_group_cap = cap
                self.actions.append({
                    "at_s": now, "action": "batch", "max_batch_size": cap,
                })

        if config.adapt_routing and self.router == "round_robin":
            pendings = [chip.pending for chip in active]
            if max(pendings) - min(pendings) >= config.imbalance_threshold:
                self.router = "jsq"
                self.actions.append({
                    "at_s": now, "action": "router", "router": "jsq",
                })

        self.win_busy_s = 0.0
        self.win_latencies = []
        return len(self.actions) > taken

    def provenance(self, final_batch) -> dict:
        """The ``provenance["controller"]`` entry of the finished run."""
        state = self.state
        return {
            **self.config.to_dict(),
            "min_chips": self.min_chips,
            "initial_chips": self.initial_chips,
            "peak_chips": self.peak,
            "final_active": state.count(_ACTIVE),
            "final_router": self.router,
            "final_max_batch_size": final_batch,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "shed_admission": self.shed_admission,
            "actions": self.actions,
            "chips": [
                {
                    "chip": chip_id,
                    "created_at_s": self.created_at[chip_id],
                    "first_active_at_s": self.first_active_at[chip_id],
                }
                for chip_id in range(len(state))
            ],
        }


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
    controller = _Controller(
        config, policy, model, router_name, initial, min_chips
    )
    saved_batch = (
        (policy.max_batch_size, policy.single_group_cap)
        if controller.adapt_batching else None
    )

    columns = request_columns(requests)
    try:
        result = simulator._run_trace(
            [columns], tuple(sorted(set(columns[1]))), telemetry_window_s,
            controller=controller,
        )
        final_batch = getattr(policy, "max_batch_size", None)
    finally:
        if saved_batch is not None:
            # The policy object belongs to the caller; leave it as
            # configured.
            policy.max_batch_size, policy.single_group_cap = saved_batch
    result.provenance["controller"] = controller.provenance(final_batch)
    return result
