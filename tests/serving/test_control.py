"""Tests for the closed-loop serving control plane (`serving/control.py`).

Four invariant families the controller must uphold:

* **Conservation with shed** — admission control joins the chaos layer's
  identity: every arrival is completed, lost or shed, under any policy.
* **Warm-up discipline** — no request is ever dispatched on a chip before
  that chip's ``first_active_at_s``: the router cannot see warming chips.
* **Controller-off byte-identity** — a ``controller=None`` run through
  `run_scenario` reproduces the PR 9 goldens exactly; the control plane
  is pay-for-what-you-use.
* **Determinism** — same seed, same action log, per policy.
* **Pinned identity** — a controller with nothing to decide serves
  exactly like the plain event core, chaos and simultaneous arrivals
  included.
* **Frozen captures** — unpinned controlled runs reproduce
  ``golden/controlled.json`` field for field.

Plus `ControllerConfig` validation and the CLI flag-combination
rejections the controller multiplies.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ServingError
from repro.serving.batching import ContinuousBatching, NoBatching
from repro.serving.chaos import ChaosTimeline, chip_failure, straggler
from repro.serving.control import (
    CONTROLLER_POLICIES,
    ControllerConfig,
    run_controlled,
)
from repro.serving.fleet import Fleet
from repro.serving.scenarios import run_scenario
from repro.serving.simulator import ServingSimulator
from repro.serving.traffic import Request

GOLDEN_DIR = Path(__file__).parent / "golden"

WORKLOADS = ("nvsa", "mimonet", "lvrf", "prae")


class FakeServiceModel:
    """Deterministic service model: ``base * (0.5 + 0.5 * batch)``."""

    scheduler = "fake"
    cached_reports = 0

    def __init__(self, base=None):
        self.base = dict(base or {name: 0.01 for name in WORKLOADS})

    def service_seconds(self, workload, batch_size):
        return self.base[workload] * (0.5 + 0.5 * batch_size)

    def energy_joules(self, workload, batch_size):
        return self.service_seconds(workload, batch_size)


def _simulator(
    policy=None, num_chips=2, router="jsq", chaos=None, vectorize=True
):
    return ServingSimulator(
        service_model=FakeServiceModel(),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy or ContinuousBatching(max_batch_size=4),
        chaos=chaos,
        vectorize=vectorize,
    )


def _record_rows(result):
    return [
        [r.request_id, r.workload, r.chip, r.arrival_s, r.dispatch_s,
         r.finish_s, r.batch_size]
        for r in result.records
    ]


#: arrivals on a 2 ms grid so ticks, warm-ups and completions collide
request_streams = st.lists(
    st.tuples(
        st.sampled_from(WORKLOADS),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=1,
    max_size=60,
).map(
    lambda entries: [
        Request(request_id=index, workload=workload, arrival_s=tick / 500.0)
        for index, (workload, tick) in enumerate(
            sorted(entries, key=lambda e: e[1])
        )
    ]
)


class TestConfigValidation:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(policy="nope"), "unknown controller policy"),
            (dict(interval_s=0.0), "interval_s"),
            (dict(interval_s=float("inf")), "interval_s"),
            (dict(warmup_s=-1.0), "warmup_s"),
            (dict(min_chips=0), "min_chips"),
            (dict(max_chips=0), "max_chips"),
            (dict(min_chips=9, max_chips=4), "cannot exceed"),
            (dict(target_utilization=0.0), "target_utilization"),
            (dict(target_utilization=1.5), "target_utilization"),
            (dict(deadband=-0.1), "deadband"),
            (dict(target_queue=0.0), "target_queue"),
            (dict(slo_s=0.0), "slo_s"),
            (dict(slo_budget_s=0.0), "slo_budget_s"),
            (dict(slo_budget_s={"nvsa": -1.0}), "budgets must be positive"),
            (dict(batch_min=0), "batch"),
            (dict(batch_min=8, batch_max=2), "batch"),
            (dict(imbalance_threshold=0), "imbalance_threshold"),
            (dict(deadband=float("nan")), "deadband"),
            # non-integer bounds (a fractional chip bound never lets the
            # scale loop finish; a fractional batch cap reaches the policy)
            (dict(max_chips=2.5), "max_chips"),
            (dict(min_chips=1.5), "min_chips"),
            (dict(batch_min=1.5), "batch_min"),
            (dict(batch_max=8.5), "batch_max"),
            (dict(imbalance_threshold=2.5), "imbalance_threshold"),
            # non-finite gains, setpoints and SLOs
            (dict(policy="queue_pid", target_queue=float("nan")),
             "target_queue"),
            (dict(policy="queue_pid", target_queue=float("inf")),
             "target_queue"),
            (dict(policy="queue_pid", kp=float("nan")), "kp"),
            (dict(policy="queue_pid", kp=float("inf")), "kp"),
            (dict(policy="queue_pid", ki=float("nan")), "ki"),
            (dict(policy="queue_pid", ki=float("-inf")), "ki"),
            (dict(policy="queue_pid", kd=float("nan")), "kd"),
            (dict(policy="queue_pid", kd=float("inf")), "kd"),
            (dict(deadband=float("inf")), "deadband"),
            (dict(slo_s=float("nan")), "slo_s"),
            (dict(slo_s=float("inf")), "slo_s"),
            (dict(slo_budget_s=float("nan")), "slo_budget_s"),
            (dict(slo_budget_s={"nvsa": float("nan")}), "slo_budget_s"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ServingError, match=match):
            ControllerConfig(**kwargs)

    def test_budget_for_prefers_mapping_then_slo(self):
        config = ControllerConfig(
            slo_s=0.01, slo_budget_s={"nvsa": 0.002}
        )
        assert config.budget_for("nvsa") == 0.002
        assert config.budget_for("mimonet") == 0.01
        off = ControllerConfig(slo_s=0.01, admission=False)
        assert off.budget_for("nvsa") is None

    def test_to_dict_is_json_ready(self):
        config = ControllerConfig(slo_budget_s={"nvsa": 0.002})
        assert json.dumps(config.to_dict())

    def test_run_rejects_wrong_types_and_fleets(self):
        sim = _simulator()
        requests = [Request(0, "nvsa", 0.0)]
        with pytest.raises(ServingError, match="ControllerConfig"):
            run_controlled(sim, "target_util", requests)
        with pytest.raises(ServingError, match="empty stream"):
            run_controlled(sim, ControllerConfig(), [])
        affinity = _simulator(router="affinity")
        with pytest.raises(ServingError, match="affinity"):
            run_controlled(affinity, ControllerConfig(), requests)
        with pytest.raises(ServingError, match="cannot exceed"):
            run_controlled(sim, ControllerConfig(max_chips=1), requests)
        with pytest.raises(ServingError, match="already exceeds"):
            run_controlled(
                sim, ControllerConfig(min_chips=1, max_chips=1), requests
            )
        with pytest.raises(ServingError, match="duplicate request ids"):
            run_controlled(
                sim, ControllerConfig(),
                [Request(0, "nvsa", 0.0), Request(0, "nvsa", 0.5)],
            )


@pytest.mark.parametrize("policy_name", CONTROLLER_POLICIES)
class TestConservation:
    @settings(max_examples=25, deadline=None)
    @given(stream=request_streams)
    def test_arrived_equals_completed_plus_shed_plus_lost(
        self, policy_name, stream, telemetry_contract
    ):
        sim = _simulator()
        config = ControllerConfig(
            policy=policy_name, slo_s=0.004, warmup_s=0.02,
            target_queue=2.0, max_chips=4,
        )
        result = run_controlled(sim, config, stream, telemetry_window_s=0.01)
        telemetry_contract(result)
        # The deferred controller path bars the water-fill span.
        assert result.provenance["coupled_engine"] == "scalar"
        assert (
            len(result.records) + result.requests_lost + result.requests_shed
            == len(stream)
        )
        assert result.requests_arrived == len(stream)
        # Records come back sorted by request id, like every other core.
        ids = [record.request_id for record in result.records]
        assert ids == sorted(ids)

    def test_conservation_holds_under_chaos(
        self, policy_name, telemetry_contract
    ):
        stream = [
            Request(i, WORKLOADS[i % 4], 0.002 * i) for i in range(120)
        ]
        sim = _simulator(
            chaos=ChaosTimeline((chip_failure(0, 0.05, float("inf")),)),
        )
        config = ControllerConfig(policy=policy_name, slo_s=0.02)
        result = run_controlled(sim, config, stream, telemetry_window_s=0.01)
        assert (
            len(result.records) + result.requests_lost + result.requests_shed
            == 120
        )
        assert result.incidents
        telemetry_contract(result)


class TestWarmup:
    def test_no_dispatch_before_first_active(self):
        # Saturate a 1-chip fleet so the autoscaler provisions more; every
        # dispatch must land on a chip that had finished warming by then.
        stream = [Request(i, "nvsa", 0.001 * i) for i in range(200)]
        sim = _simulator(num_chips=1)
        config = ControllerConfig(
            policy="queue_pid", target_queue=2.0, warmup_s=0.04,
            max_chips=6, admission=False, adapt_batching=False,
        )
        result = run_controlled(sim, config, stream)
        info = result.provenance["controller"]
        assert info["scale_ups"] > 0
        assert info["peak_chips"] > 1
        first_active = {
            entry["chip"]: entry["first_active_at_s"]
            for entry in info["chips"]
        }
        assert any(at > 0 for at in first_active.values() if at is not None)
        for record in result.records:
            activated = first_active[record.chip]
            assert activated is not None
            assert record.dispatch_s >= activated

    def test_zero_warmup_activates_instantly(self):
        stream = [Request(i, "nvsa", 0.001 * i) for i in range(80)]
        sim = _simulator(num_chips=1)
        config = ControllerConfig(
            policy="queue_pid", target_queue=1.0, warmup_s=0.0,
            max_chips=4, admission=False,
        )
        result = run_controlled(sim, config, stream)
        info = result.provenance["controller"]
        assert info["peak_chips"] > 1
        assert all(
            entry["first_active_at_s"] == entry["created_at_s"]
            for entry in info["chips"]
        )


@pytest.mark.parametrize("policy_name", CONTROLLER_POLICIES)
class TestDeterminism:
    def test_same_seed_same_actions(self, policy_name):
        config = ControllerConfig(policy=policy_name)
        runs = [
            run_scenario(
                "flash_crowd", seed=3, duration_scale=0.2, controller=config
            )[1]
            for _ in range(2)
        ]
        first, second = (run.provenance["controller"] for run in runs)
        assert first["actions"] == second["actions"]
        assert first["peak_chips"] == second["peak_chips"]
        assert _record_rows(runs[0]) == _record_rows(runs[1])
        assert runs[0].energy_joules == runs[1].energy_joules


class TestControllerOffByteIdentity:
    @pytest.mark.parametrize("name", ("flash_crowd", "ramp_surge"))
    def test_controller_none_reproduces_golden_records(self, name):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        _, result = run_scenario(
            name,
            seed=golden["seed"],
            load_scale=golden["load_scale"],
            duration_scale=golden["duration_scale"],
            controller=None,
        )
        assert _record_rows(result) == golden["records"]
        assert result.energy_joules == golden["energy_joules"]
        assert "controller" not in result.provenance


class TestAdmission:
    def test_tight_budget_sheds_and_loose_budget_does_not(self):
        stream = [Request(i, "nvsa", 0.0005 * i) for i in range(100)]
        config = ControllerConfig(
            policy="target_util", slo_s=0.004, max_chips=2,
            adapt_batching=False,
        )
        shed_run = run_controlled(_simulator(), config, stream)
        assert shed_run.requests_shed > 0
        assert (
            shed_run.provenance["controller"]["shed_admission"]
            == shed_run.requests_shed
        )
        loose = ControllerConfig(
            policy="target_util", slo_s=0.004, max_chips=2,
            slo_budget_s=10.0, adapt_batching=False,
        )
        keep_run = run_controlled(_simulator(), loose, stream)
        assert keep_run.requests_shed == 0

    @pytest.mark.parametrize("router", ("jsq", "round_robin"))
    def test_saturated_admission_matches_the_scalar_core(self, router):
        # Arrivals every 0.5 ms keep both chips of the pool busy, so the
        # vectorized core admits and sheds them in saturated spans while
        # the controller retunes the batch cap.
        stream = [Request(i, WORKLOADS[i % 4], 0.0005 * i) for i in range(300)]
        config = ControllerConfig(
            policy="queue_pid", slo_s=0.02, min_chips=2, max_chips=2,
            interval_s=0.01, warmup_s=0.005,
        )
        fast, slow = (
            run_controlled(
                _simulator(router=router, vectorize=vectorize), config, stream,
                telemetry_window_s=0.01,
            )
            for vectorize in (True, False)
        )
        assert fast.requests_shed > 0
        assert _record_rows(fast) == _record_rows(slow)
        assert fast.requests_shed == slow.requests_shed
        assert fast.energy_joules == slow.energy_joules
        assert fast.provenance["controller"] == slow.provenance["controller"]
        assert fast.telemetry.windows == slow.telemetry.windows

    @pytest.mark.parametrize(
        "chaos, expected_shed",
        (
            # Each admission shed lands in the window of its arrival.
            (None, [18, 18, 19, 17, 18, 0]),
            # A never-recovering failure at 12 ms (after the last
            # completion, at 10 ms) sheds the queue past the series' last
            # window: those instants clamp into it.
            (
                ChaosTimeline((chip_failure(0, 0.012, float("inf")),)),
                [0, 0, 0, 0, 0, 8],
            ),
        ),
        ids=("admission", "failure-after-last-completion"),
    )
    def test_shed_counts_land_in_telemetry_windows(self, chaos, expected_shed):
        if chaos is None:
            sim = _simulator()
            stream = [Request(i, "nvsa", 0.0005 * i) for i in range(100)]
            config = ControllerConfig(
                policy="target_util", slo_s=0.004, max_chips=2,
                adapt_batching=False,
            )
            window_s = 0.01
        else:
            sim = _simulator(policy=NoBatching(), num_chips=1, chaos=chaos)
            stream = [Request(i, "nvsa", 0.001 * i) for i in range(10)]
            config = ControllerConfig(
                policy="target_util", max_chips=1, admission=False,
                adapt_batching=False,
            )
            window_s = 0.002
        result = run_controlled(
            sim, config, stream, telemetry_window_s=window_s
        )
        assert result.telemetry is not None
        shed_total = sum(row["shed"] for row in result.telemetry.windows)
        assert shed_total == result.requests_shed
        assert result.telemetry.column("shed") == expected_shed


class TestAdaptiveKnobs:
    def test_batching_retunes_and_restores_the_policy(self):
        policy = ContinuousBatching(max_batch_size=2)
        stream = [Request(i, "nvsa", 0.0005 * i) for i in range(150)]
        sim = _simulator(policy=policy)
        config = ControllerConfig(
            policy="target_util", slo_s=0.003, max_chips=2,
            admission=False, batch_max=16,
        )
        result = run_controlled(sim, config, stream)
        info = result.provenance["controller"]
        batch_actions = [
            action for action in info["actions"]
            if action["action"] == "batch"
        ]
        assert batch_actions
        assert info["final_max_batch_size"] != 2 or len(batch_actions) > 1
        # The caller's policy object comes back exactly as configured.
        assert policy.max_batch_size == 2
        assert policy.single_group_cap == 2

    def test_round_robin_upgrades_to_jsq_on_imbalance(self):
        # nvsa is 100x slower than mimonet here, so round-robin piles work
        # on whichever chip drew the slow requests.
        model = FakeServiceModel({"nvsa": 0.1, "mimonet": 0.001,
                                  "lvrf": 0.001, "prae": 0.001})
        sim = ServingSimulator(
            service_model=model,
            fleet=Fleet(num_chips=2, router="round_robin"),
            batching_policy=NoBatching(),
        )
        stream = [
            Request(i, "nvsa" if i % 2 == 0 else "mimonet", 0.001 * i)
            for i in range(120)
        ]
        config = ControllerConfig(
            policy="target_util", max_chips=2, admission=False,
            adapt_batching=False, adapt_routing=True, imbalance_threshold=3,
        )
        result = run_controlled(sim, config, stream)
        info = result.provenance["controller"]
        assert info["final_router"] == "jsq"
        assert any(
            action["action"] == "router" for action in info["actions"]
        )


class TestRunScenarioIntegration:
    def test_scenario_controller_run_meets_conservation(self):
        config = ControllerConfig(policy="target_util")
        scenario, result = run_scenario(
            "flash_crowd", duration_scale=0.2, controller=config
        )
        info = result.provenance["controller"]
        # run_scenario fills the SLO anchor from the scenario.
        assert info["slo_s"] == scenario.slo_s
        assert (
            len(result.records) + result.requests_lost + result.requests_shed
            == result.requests_arrived
        )

    def test_controller_rejects_sessions_and_shards(self):
        config = ControllerConfig()
        with pytest.raises(ServingError, match="closed-loop"):
            run_scenario("session_surge", controller=config)
        with pytest.raises(ServingError, match="shard"):
            run_scenario("flash_crowd", shards=2, controller=config)


class TestControlFrontier:
    def test_flash_crowd_controller_beats_cheapest_static_fleet(self):
        """Acceptance: dynamic frontier strictly left of the static one."""
        from repro.evaluation.serving_experiments import control_frontier

        rows = control_frontier(scenarios=("flash_crowd",))
        by_policy = {row["policy"]: row for row in rows}
        static = by_policy["static"]
        assert static["meets_slo"]
        for policy in ("target_util", "queue_pid"):
            dynamic = by_policy[policy]
            assert dynamic["meets_slo"]
            assert dynamic["p99_ms"] <= dynamic["slo_ms"]
            assert dynamic["peak_chips"] < static["chips"]

    def test_frontier_validates_parameters(self):
        from repro.evaluation.serving_experiments import control_frontier

        with pytest.raises(ServingError, match="max_chips"):
            control_frontier(max_chips=0)
        with pytest.raises(ServingError, match="min_served_frac"):
            control_frontier(min_served_frac=0.0)
        with pytest.raises(ServingError, match="unknown controller policy"):
            control_frontier(policies=("nope",))


class TestServeCliFlags:
    def test_controller_smoke_run_reports_provenance(self, capsys):
        assert main([
            "serve", "flash_crowd", "--controller", "target_util",
            "--smoke", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        info = payload["provenance"]["controller"]
        assert info["policy"] == "target_util"
        assert info["scale_ups"] > 0

    @pytest.mark.parametrize("argv", [
        # controller-specific combinations
        ["serve", "steady", "--controller", "target_util", "--shards", "2"],
        ["serve", "steady", "--controller", "target_util", "--sessions"],
        ["serve", "steady", "--controller", "target_util", "--users", "4"],
        ["serve", "steady", "--controller", "target_util", "--profile"],
        ["serve", "--list", "--controller", "target_util"],
        ["serve", "--smoke", "--controller", "target_util"],
        ["serve", "steady,diurnal", "--controller", "target_util"],
        ["serve", "steady", "--control-interval-ms", "20"],
        ["serve", "steady", "--controller", "target_util",
         "--control-interval-ms", "0"],
        ["serve", "steady", "--controller", "target_util",
         "--record", "t.jsonl"],
        # pre-existing closed-loop inconsistencies the controller multiplies
        ["serve", "--trace", "t.jsonl", "--sessions"],
        ["serve", "--trace", "t.jsonl", "--controller", "target_util"],
        ["serve", "steady", "--sessions", "--shards", "2"],
    ])
    def test_inconsistent_flag_combos_exit_with_one_line_errors(
        self, argv, capsys
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        if "--shards" in argv:
            assert "shard" in err


def _pinned_streams():
    """``name -> (requests, chips)``: scenario traffic plus one tied stream.

    Scenario traffic has no simultaneous arrivals; the tied stream (bursts
    of six ``nvsa`` requests every 5 ms) checks that a controlled run
    drains a whole instant before dispatching, exactly like the core.
    """
    from repro.serving.scenarios import get_scenario

    streams = {}
    for name in ("flash_crowd", "steady", "mixed_workload"):
        scenario = get_scenario(name)
        streams[name] = (scenario.traffic(0, 1.0, 0.2), scenario.num_chips)
    streams["tied_bursts"] = (
        [Request(i, "nvsa", 0.005 * (i // 6)) for i in range(60)], 2
    )
    return streams


def _pinned_chaos(kind, requests):
    """A chaos timeline placed at fractions of the stream's arrival span."""
    span = requests[-1].arrival_s
    if kind == "none":
        return None
    if kind == "failure_straggler":
        return ChaosTimeline((
            chip_failure(0, 0.25 * span, 0.125 * span),
            straggler(1, 0.375 * span, 0.25 * span, 3.0),
        ))
    return ChaosTimeline((chip_failure(1, 0.625 * span, float("inf")),))


@pytest.fixture(scope="module")
def pinned_streams():
    return _pinned_streams()


@pytest.fixture(scope="module")
def execution_cache():
    from repro.backends import ExecutionCache

    return ExecutionCache()


class TestPinnedControllerMatchesCore:
    """A controller with nothing to decide must serve exactly like the core.

    Pinned: ``min_chips == max_chips ==`` the fleet size, admission and
    adaptive batching off.  Every output the two paths share must agree
    field for field, floats included.
    """

    @pytest.mark.parametrize(
        "chaos_kind", ("none", "failure_straggler", "dead_chip")
    )
    @pytest.mark.parametrize("router", ("jsq", "round_robin"))
    @pytest.mark.parametrize(
        "stream", ("flash_crowd", "steady", "mixed_workload", "tied_bursts")
    )
    def test_pinned_controller_reproduces_core(
        self, stream, router, chaos_kind, pinned_streams, execution_cache
    ):
        requests, chips = pinned_streams[stream]
        chaos = _pinned_chaos(chaos_kind, requests)

        def simulator():
            return ServingSimulator(
                service_model=execution_cache,
                fleet=Fleet(num_chips=chips, router=router),
                batching_policy=ContinuousBatching(max_batch_size=8),
                chaos=chaos,
            )

        config = ControllerConfig(
            min_chips=chips, max_chips=chips, admission=False,
            adapt_batching=False, slo_s=0.005,
        )
        plain = simulator().run(requests)
        pinned = run_controlled(simulator(), config, requests)
        assert pinned.provenance["controller"]["actions"] == []
        assert _record_rows(pinned) == _record_rows(plain)
        assert pinned.chip_busy_s == plain.chip_busy_s
        assert pinned.chip_requests == plain.chip_requests
        # Energy is the one sum whose order differs: a chaos-free core run
        # adds each batch's energy at dispatch, a controlled (or chaos)
        # run at completion, so the two totals may differ in the last ulp.
        assert pinned.energy_joules == pytest.approx(
            plain.energy_joules, rel=1e-12, abs=0.0
        )
        assert pinned.num_batches == plain.num_batches
        assert pinned.horizon_s == plain.horizon_s
        assert pinned.requests_lost == plain.requests_lost
        assert pinned.requests_shed == plain.requests_shed
        assert pinned.incidents == plain.incidents
        if chaos_kind != "none":
            assert plain.incidents

    def test_run_without_completions_matches_core(self):
        # The only chip is down for good before the first arrival: nothing
        # completes, so the horizon (and the stranded sweep's instant)
        # stays at the first arrival, as in the core.
        def simulator():
            return ServingSimulator(
                service_model=FakeServiceModel(),
                fleet=Fleet(num_chips=1, router="jsq"),
                chaos=ChaosTimeline((chip_failure(0, 0.0, float("inf")),)),
            )

        stream = [Request(i, "nvsa", 0.001 * (i + 1)) for i in range(5)]
        config = ControllerConfig(
            max_chips=1, admission=False, adapt_batching=False
        )
        plain = simulator().run(stream)
        pinned = run_controlled(simulator(), config, stream)
        assert pinned.records == plain.records == ()
        assert pinned.horizon_s == plain.horizon_s == 0.001
        assert pinned.incidents == plain.incidents
        assert pinned.requests_shed == plain.requests_shed == 5


#: unpinned controlled runs frozen in ``golden/controlled.json``
CONTROLLED_SPECS = {
    # admission and adaptive batching on (the defaults), per policy
    "target_util_flash_crowd": dict(
        scenario="flash_crowd", load_scale=1.0, duration_scale=0.2,
        controller=dict(policy="target_util"),
    ),
    "queue_pid_ramp_surge": dict(
        scenario="ramp_surge", load_scale=1.0, duration_scale=0.2,
        controller=dict(policy="queue_pid", interval_s=0.02, warmup_s=0.02),
    ),
    # a round_robin fleet the controller upgrades to jsq mid-run
    "adapt_routing_steady": dict(
        scenario="steady", load_scale=2.0, duration_scale=0.1,
        router="round_robin",
        controller=dict(
            policy="target_util", adapt_routing=True, imbalance_threshold=2
        ),
    ),
    # the scenario's chip-failure timeline under a controller
    "chaos_chip_outage": dict(
        scenario="chip_outage", load_scale=1.0, duration_scale=0.2,
        controller=dict(policy="queue_pid"),
    ),
    "telemetry_flash_crowd": dict(
        scenario="flash_crowd", load_scale=1.0, duration_scale=0.2,
        controller=dict(policy="queue_pid"), telemetry_window_s=0.02,
    ),
    # a draining chip scaled back up before it parked (reactivation);
    # scenario traffic never takes that path, so the arrival instants of
    # a tie-free two-rate Poisson stream are stored with the golden
    "drain_reactivation": dict(
        num_chips=2, router="round_robin",
        controller=dict(
            policy="queue_pid", interval_s=0.005, warmup_s=0.005,
            admission=False, adapt_batching=False, target_queue=4.0,
            max_chips=6, kp=2.0, ki=2.0, kd=0.05,
        ),
    ),
}


def _run_controlled_spec(spec, service_model, arrivals=None):
    """Execute one :data:`CONTROLLED_SPECS` entry, returning the result.

    Entries without a ``scenario`` serve ``nvsa`` requests at ``arrivals``.
    """
    config = ControllerConfig(**spec["controller"])
    window_s = spec.get("telemetry_window_s")
    if "scenario" in spec:
        return run_scenario(
            spec["scenario"], seed=0, load_scale=spec["load_scale"],
            duration_scale=spec["duration_scale"], router=spec.get("router"),
            service_model=service_model, controller=config,
            telemetry_window_s=window_s,
        )[1]
    sim = ServingSimulator(
        service_model=service_model,
        fleet=Fleet(num_chips=spec["num_chips"], router=spec["router"]),
        batching_policy=NoBatching(),
    )
    requests = [Request(i, "nvsa", at) for i, at in enumerate(arrivals)]
    return run_controlled(sim, config, requests, telemetry_window_s=window_s)


def _controlled_outputs(result):
    """Every output of a controlled run, as JSON-ready values."""
    return {
        "records": _record_rows(result),
        "chip_busy_s": list(result.chip_busy_s),
        "chip_requests": list(result.chip_requests),
        "energy_joules": result.energy_joules,
        "num_batches": result.num_batches,
        "horizon_s": result.horizon_s,
        "first_arrival_s": result.first_arrival_s,
        "requests_lost": result.requests_lost,
        "requests_shed": result.requests_shed,
        "incidents": list(result.incidents),
        "controller": result.provenance["controller"],
        "telemetry": (
            None if result.telemetry is None
            else list(result.telemetry.windows)
        ),
    }


class TestControlledGoldens:
    """Unpinned controlled runs reproduce their frozen capture exactly.

    ``golden/controlled.json`` was captured before the controller moved
    onto the event core (see ``golden/README.md``); every field must
    match, floats included.  Fields compare as canonical JSON so window
    rows holding NaN compare equal to themselves.
    """

    @pytest.mark.parametrize("name", sorted(CONTROLLED_SPECS))
    def test_controlled_run_matches_golden(self, name, execution_cache):
        golden = json.loads((GOLDEN_DIR / "controlled.json").read_text())
        assert golden["specs"][name] == json.loads(
            json.dumps(CONTROLLED_SPECS[name])
        )
        produced = _controlled_outputs(_run_controlled_spec(
            CONTROLLED_SPECS[name], execution_cache,
            golden["streams"].get(name),
        ))
        expected = golden["runs"][name]
        assert sorted(produced) == sorted(expected)
        for key in sorted(expected):
            assert json.dumps(produced[key], sort_keys=True) == json.dumps(
                expected[key], sort_keys=True
            ), key
