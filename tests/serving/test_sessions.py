"""Closed-loop session traffic tests: determinism and latency feedback.

The sessions engine replaces the pre-generated arrival stream with a
fixed user population whose next request is born from the previous
completion plus think time.  Two properties define it:

* **Determinism** — the trace is a pure function of the seed: same seed,
  same records and telemetry; different seed, different trace.
* **Feedback** — offered load responds to latency: slowing the service
  model down can only lower the realized request rate, monotonically.

Chaos composes with the loop — a dropped request unblocks its user at
the drop instant, and conservation over *submitted* requests holds — and
an unrecovered outage strands users mid-conversation by design.

Frozen captures — ``golden/sessions.json`` pins eight session runs
(routers, batching policies and chaos kinds) field for field.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving.batching import ContinuousBatching, build_policy
from repro.serving.chaos import ChaosTimeline, chip_failure, power_cap
from repro.serving.fleet import Fleet
from repro.serving.scenarios import run_scenario
from repro.serving.sessions import SessionConfig, _User, run_sessions
from repro.serving.simulator import ServingSimulator
from repro.serving.traffic import choice_cdf

GOLDEN_DIR = Path(__file__).parent / "golden"

WORKLOADS = ("lvrf", "mimonet", "nvsa", "prae")


class SessionFakeModel:
    """Deterministic per-workload service times with a slowdown knob."""

    scheduler = "fake"
    cached_reports = 0

    BASE = {"lvrf": 0.8, "mimonet": 0.2, "nvsa": 1.0, "prae": 0.5}

    def __init__(self, scale=1.0):
        self.scale = scale

    def service_seconds(self, workload, batch_size):
        return self.BASE[workload] * (0.005 + 0.005 * batch_size) * self.scale

    def energy_joules(self, workload, batch_size):
        return self.service_seconds(workload, batch_size)


def _simulator(
    scale=1.0, num_chips=2, router="jsq", policy=None, chaos=None,
    vectorize=True,
):
    return ServingSimulator(
        service_model=SessionFakeModel(scale),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy or ContinuousBatching(max_batch_size=4),
        chaos=chaos,
        vectorize=vectorize,
    )


def _config(**overrides):
    base = dict(
        users=12, turns=3, sessions_per_user=2,
        think_time_s=0.01, session_gap_s=0.02, start_spread_s=0.1,
        mix=tuple((name, 1.0) for name in WORKLOADS),
    )
    base.update(overrides)
    return SessionConfig(**base)


def _rows(result):
    return [
        [r.request_id, r.workload, r.chip, r.arrival_s, r.dispatch_s,
         r.finish_s, r.batch_size]
        for r in result.records
    ]


class TestSessionConfig:
    def test_population_knobs_are_validated(self):
        with pytest.raises(ServingError, match="users"):
            SessionConfig(users=0)
        with pytest.raises(ServingError, match="turns"):
            SessionConfig(users=1, turns=0)
        with pytest.raises(ServingError, match="sessions_per_user"):
            SessionConfig(users=1, sessions_per_user=0)
        with pytest.raises(ServingError, match="think_time_s"):
            SessionConfig(users=1, think_time_s=-0.1)
        with pytest.raises(ServingError, match="session_gap_s"):
            SessionConfig(users=1, session_gap_s=math.inf)
        # Populations count users, turns and conversations: integers only.
        for bad in (2.5, math.nan, math.inf):
            with pytest.raises(ServingError, match="users must be an integer"):
                SessionConfig(users=bad)
        with pytest.raises(ServingError, match="turns must be an integer"):
            SessionConfig(users=2, turns=1.5)
        with pytest.raises(
            ServingError, match="sessions_per_user must be an integer"
        ):
            SessionConfig(users=1, sessions_per_user=math.inf)
        assert SessionConfig(users=np.int64(3)).total_requests == 12

    def test_mix_is_normalized_and_validated(self):
        config = SessionConfig(users=1, mix=(("b", 3.0), ("a", 1.0)))
        assert config.mix == (("a", 0.25), ("b", 0.75))
        with pytest.raises(ServingError, match="at least one"):
            SessionConfig(users=1, mix=())
        with pytest.raises(ServingError, match="non-negative"):
            SessionConfig(users=1, mix=(("a", -1.0),))
        with pytest.raises(ServingError, match="positive"):
            SessionConfig(users=1, mix=(("a", 0.0),))
        for weight in (math.nan, math.inf):
            with pytest.raises(ServingError, match="finite"):
                SessionConfig(users=1, mix=(("a", weight), ("b", 1.0)))

    def test_user_draws_match_numpy_choice(self):
        config = SessionConfig(users=1, mix=(("a", 2.0), ("b", 0.0), ("c", 1.0)))
        names = tuple(name for name, _ in config.mix)
        probs = [prob for _, prob in config.mix]
        user = _User(np.random.default_rng(5), config, names, choice_cdf(probs))
        reference = np.random.default_rng(5)
        for _ in range(20_000):
            assert user.draw_workload() == names[reference.choice(3, p=probs)]
            assert user.rng.exponential() == reference.exponential()

    def test_total_requests_counts_the_whole_population(self):
        assert _config().total_requests == 12 * 3 * 2

    def test_scaled_maps_the_serve_knobs_onto_the_population(self):
        config = _config()
        scaled = config.scaled(2.0, 3.0)
        assert scaled.users == 24
        assert scaled.sessions_per_user == 6
        assert scaled.turns == config.turns
        # Scaling floors at one user / one conversation.
        tiny = config.scaled(0.01, 0.01)
        assert tiny.users == 1
        assert tiny.sessions_per_user == 1
        assert config.scaled(1.0, 1.0) is config
        with pytest.raises(ServingError, match="positive"):
            config.scaled(0.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ServingError, match="finite"):
                config.scaled(bad, 1.0)
            with pytest.raises(ServingError, match="finite"):
                config.scaled(1.0, bad)

    def test_to_dict_round_trips_through_the_constructor(self):
        config = _config()
        clone = SessionConfig(**{
            key: (tuple(value.items()) if key == "mix" else value)
            for key, value in config.to_dict().items()
        })
        assert clone == config


class TestClosedLoopDeterminism:
    def test_same_seed_same_trace(self):
        config = _config()
        first = run_sessions(
            _simulator(), config, seed=7, telemetry_window_s=0.05
        )
        second = run_sessions(
            _simulator(), config, seed=7, telemetry_window_s=0.05
        )
        assert _rows(first) == _rows(second)
        assert first.chip_busy_s == second.chip_busy_s
        assert first.energy_joules == second.energy_joules
        assert first.telemetry.windows == second.telemetry.windows

    def test_different_seed_different_trace(self):
        config = _config()
        first = run_sessions(_simulator(), config, seed=7)
        other = run_sessions(_simulator(), config, seed=8)
        assert _rows(first) != _rows(other)

    def test_records_are_in_submission_order_and_causal(self):
        result = run_sessions(_simulator(), _config(), seed=3)
        ids = [record.request_id for record in result.records]
        assert ids == sorted(ids)
        for record in result.records:
            assert record.arrival_s <= record.dispatch_s <= record.finish_s

    def test_full_population_completes_without_chaos(self):
        config = _config()
        result = run_sessions(_simulator(), config, seed=1)
        assert len(result.records) == config.total_requests
        assert result.requests_lost == 0
        assert result.requests_shed == 0
        assert result.provenance["closed_loop"]["seed"] == 1
        assert result.provenance["closed_loop"]["users"] == config.users

    def test_config_type_is_checked(self):
        with pytest.raises(ServingError, match="SessionConfig"):
            run_sessions(_simulator(), {"users": 4})


class TestLatencyFeedback:
    def test_offered_load_backs_off_as_latency_grows(self):
        """Slower chips ⇒ slower users: realized rps is non-increasing."""
        config = _config(users=16, turns=4)
        rates = []
        for scale in (1.0, 2.0, 4.0, 8.0):
            result = run_sessions(_simulator(scale=scale), config, seed=5)
            assert len(result.records) == config.total_requests
            rates.append(result.num_requests / result.horizon_s)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        # And strictly lower at the extremes: the feedback is real.
        assert rates[-1] < rates[0]

    def test_think_time_lowers_offered_load(self):
        fast = run_sessions(
            _simulator(), _config(think_time_s=0.0, session_gap_s=0.0),
            seed=5,
        )
        slow = run_sessions(
            _simulator(), _config(think_time_s=0.1, session_gap_s=0.1),
            seed=5,
        )
        assert (
            slow.num_requests / slow.horizon_s
            < fast.num_requests / fast.horizon_s
        )


class TestSessionsUnderChaos:
    def test_conservation_holds_through_an_outage(self, telemetry_contract):
        chaos = ChaosTimeline((
            chip_failure(0, 0.05, 0.1), power_cap(0.2, 0.1, 3.0),
        ))
        config = _config(users=24, think_time_s=0.002, session_gap_s=0.002,
                         start_spread_s=0.02)
        result = run_sessions(
            _simulator(chaos=chaos), config, seed=2, telemetry_window_s=0.01
        )
        telemetry_contract(result)
        assert result.requests_lost + result.requests_shed > 0
        # Conservation over *submitted* requests: every submission is
        # completed, lost or shed (dropped users resubmit after thinking).
        assert (
            len(result.records) + result.requests_lost + result.requests_shed
            == result.requests_arrived
        )
        assert any(e["kind"] == "fail" for e in result.incidents)
        assert any(e["kind"] == "recover" for e in result.incidents)

    def test_unrecovered_outage_strands_users_mid_conversation(
        self, telemetry_contract
    ):
        chaos = ChaosTimeline((chip_failure(0, 0.02, math.inf),))
        config = _config(users=8, start_spread_s=0.01)
        result = run_sessions(
            _simulator(num_chips=1, chaos=chaos), config, seed=0,
            telemetry_window_s=0.01,
        )
        telemetry_contract(result)
        # The chip never recovers: stranded users stop submitting, so
        # fewer requests than the population offers — but every submitted
        # one is accounted for.
        assert result.requests_arrived < config.total_requests
        assert result.requests_shed > 0
        assert any(e["kind"] == "stranded" for e in result.incidents)
        assert all(r.finish_s <= 0.02 for r in result.records)


class TestCoreSemantics:
    """Session runs share the event core's instant and horizon rules."""

    def test_simultaneous_submissions_share_a_batch(self):
        # Every user comes online at t=0: all four submissions enqueue
        # before the chip dispatches, so they ride one batch.
        config = _config(users=4, turns=1, sessions_per_user=1,
                         start_spread_s=0.0, mix=(("nvsa", 1.0),))
        result = run_sessions(_simulator(num_chips=1), config, seed=0)
        assert [r.batch_size for r in result.records] == [4, 4, 4, 4]
        assert {r.dispatch_s for r in result.records} == {0.0}
        assert [r.request_id for r in result.records] == [0, 1, 2, 3]

    def test_run_without_completions_ends_at_the_first_submission(self):
        # The only chip is down for good before anyone submits: nothing
        # completes, so the horizon (and the stranded sweep's instant)
        # stays at the first submission, as in every core run.
        chaos = ChaosTimeline((chip_failure(0, 0.0, math.inf),))
        config = _config(users=3, turns=2)
        result = run_sessions(
            _simulator(num_chips=1, chaos=chaos), config, seed=0
        )
        assert result.records == ()
        assert result.requests_shed == 3
        assert result.first_arrival_s > 0.0
        assert result.horizon_s == result.first_arrival_s
        assert result.incidents[-1] == {
            "at_s": result.first_arrival_s, "kind": "stranded", "chip": 0,
            "requests_shed": 3,
        }

    def test_select_only_policy_serves_like_its_builtin(self):
        class SelectOnly(ContinuousBatching):
            def select(self, queue, now):
                return super().select(queue, now)

        config = _config()
        builtin = run_sessions(_simulator(), config, seed=3)
        custom = run_sessions(
            _simulator(policy=SelectOnly(max_batch_size=4)), config, seed=3
        )
        assert _rows(custom) == _rows(builtin)
        assert custom.energy_joules == builtin.energy_joules

    @pytest.mark.parametrize("chaos", (None, ChaosTimeline((
        chip_failure(1, 0.3, 0.2), power_cap(0.1, 0.4, 2.0),
    ))), ids=("plain", "chaos"))
    def test_saturated_fleet_serves_like_the_scalar_core(self, chaos):
        # Forty users on two slowed chips keep the whole fleet busy, so
        # submissions land in saturated spans of the vectorized core.
        config = _config(users=40, start_spread_s=0.05)
        fast, slow = (
            run_sessions(
                _simulator(scale=4.0, chaos=chaos, vectorize=vectorize),
                config, seed=5, telemetry_window_s=0.05,
            )
            for vectorize in (True, False)
        )
        assert _rows(fast) == _rows(slow)
        assert fast.chip_busy_s == slow.chip_busy_s
        assert fast.energy_joules == slow.energy_joules
        assert fast.requests_lost == slow.requests_lost
        assert fast.requests_shed == slow.requests_shed
        assert fast.incidents == slow.incidents
        assert fast.telemetry.windows == slow.telemetry.windows


class TestScenarioIntegration:
    def test_session_surge_preset_runs_closed_loop(self):
        scenario, result = run_scenario(
            "session_surge", seed=4, load_scale=0.1, duration_scale=0.5,
        )
        assert scenario.sessions is not None
        closed = result.provenance["closed_loop"]
        assert closed["users"] == max(1, round(scenario.sessions.users * 0.1))
        assert result.num_requests > 0
        assert 0.0 < result.utilization <= 1.0
        # The deferred session path bars the water-fill span.
        assert result.provenance["coupled_engine"] == "scalar"

    def test_session_override_replaces_open_loop_traffic(self):
        override = _config(users=4, turns=2, sessions_per_user=1,
                           mix=(("nvsa", 1.0),))
        _, result = run_scenario("steady", sessions=override)
        assert result.provenance["closed_loop"]["users"] == 4
        assert result.num_requests == override.total_requests

    def test_closed_loop_runs_refuse_to_shard(self):
        with pytest.raises(ServingError, match="do not shard"):
            run_scenario("session_surge", load_scale=0.05, shards=2)


#: Session runs frozen in ``golden/sessions.json``.  Every think time,
#: session gap and start spread is positive, so no two submissions share
#: an instant.  ``chaos`` lists ``[kind, *args]`` incidents
#: (``chip_failure``/``power_cap`` arguments, or ``seeded`` keyword
#: arguments of :meth:`ChaosTimeline.seeded`).
SESSION_SPECS = {
    "jsq_continuous_telemetry": dict(
        router="jsq", chips=2, policy=["continuous", {"max_batch_size": 4}],
        seed=7, telemetry_window_s=0.02,
    ),
    "round_robin_none": dict(
        router="round_robin", chips=3, policy=["none", {}], seed=1,
        config={"users": 16, "turns": 4, "sessions_per_user": 1},
    ),
    # a zero-weight workload still owns a shard of the affinity fleet
    "affinity_fixed_wait": dict(
        router="affinity", chips=5,
        policy=["fixed", {"batch_size": 3, "max_wait_s": 0.004}], seed=2,
        config={"mix": [["lvrf", 1.0], ["mimonet", 2.0], ["nvsa", 0.0],
                        ["prae", 1.0]]},
    ),
    "jsq_fixed_failure_power_cap": dict(
        router="jsq", chips=2,
        policy=["fixed", {"batch_size": 4, "max_wait_s": 0.003}], seed=2,
        config={"users": 24, "think_time_s": 0.002, "session_gap_s": 0.002,
                "start_spread_s": 0.02},
        chaos=[["chip_failure", 0, 0.05, 0.1], ["power_cap", 0.2, 0.1, 3.0]],
    ),
    "jsq_continuous_dead_chip": dict(
        router="jsq", chips=2, policy=["continuous", {"max_batch_size": 4}],
        seed=0, config={"users": 10, "start_spread_s": 0.01},
        chaos=[["chip_failure", 0, 0.03, math.inf]],
    ),
    "round_robin_fixed_dead_chip": dict(
        router="round_robin", chips=3,
        policy=["fixed", {"batch_size": 2, "max_wait_s": 0.002}], seed=4,
        config={"users": 24, "think_time_s": 0.004, "start_spread_s": 0.05},
        chaos=[["chip_failure", 2, 0.06, math.inf]],
    ),
    "round_robin_continuous_storm": dict(
        router="round_robin", chips=3,
        policy=["continuous", {"max_batch_size": 4}], seed=5,
        config={"users": 20, "start_spread_s": 0.05},
        chaos=[["seeded", {"seed": 3, "num_chips": 3, "horizon_s": 0.3,
                           "failure_rate": 4.0, "straggler_rate": 10.0,
                           "mean_duration_s": 0.02}]],
    ),
    "affinity_none_failure": dict(
        router="affinity", chips=4, policy=["none", {}], seed=6,
        config={"users": 20, "think_time_s": 0.005},
        chaos=[["chip_failure", 2, 0.04, 0.05]],
    ),
}


def _spec_chaos(entries):
    incidents = []
    for kind, *args in entries or ():
        if kind == "seeded":
            incidents.extend(ChaosTimeline.seeded(**args[0]).incidents)
        elif kind == "chip_failure":
            incidents.append(chip_failure(*args))
        else:
            incidents.append(power_cap(*args))
    return ChaosTimeline(tuple(incidents)) if incidents else None


def _run_session_spec(spec):
    """Execute one :data:`SESSION_SPECS` entry, returning the result."""
    name, kwargs = spec["policy"]
    simulator = ServingSimulator(
        service_model=SessionFakeModel(),
        fleet=Fleet(num_chips=spec["chips"], router=spec["router"]),
        batching_policy=build_policy(name, **kwargs),
        chaos=_spec_chaos(spec.get("chaos")),
    )
    overrides = dict(spec.get("config", {}))
    if "mix" in overrides:
        overrides["mix"] = tuple(tuple(pair) for pair in overrides["mix"])
    return run_sessions(
        simulator, _config(**overrides), seed=spec["seed"],
        telemetry_window_s=spec.get("telemetry_window_s"),
    )


def _session_outputs(result):
    """Every output of a session run, as JSON-ready values."""
    return {
        "records": _rows(result),
        "chip_busy_s": list(result.chip_busy_s),
        "chip_requests": list(result.chip_requests),
        "energy_joules": result.energy_joules,
        "num_batches": result.num_batches,
        "horizon_s": result.horizon_s,
        "first_arrival_s": result.first_arrival_s,
        "requests_lost": result.requests_lost,
        "requests_shed": result.requests_shed,
        "incidents": list(result.incidents),
        "provenance": result.provenance,
        "telemetry": (
            None if result.telemetry is None
            else list(result.telemetry.windows)
        ),
    }


class TestSessionGoldens:
    """Session runs reproduce their frozen capture exactly.

    ``golden/sessions.json`` was captured while ``run_sessions`` still had
    its own heap loop (see ``golden/README.md``); every field must match,
    floats included.  Fields compare as canonical JSON so window rows
    holding NaN compare equal to themselves.
    """

    @pytest.mark.parametrize("name", sorted(SESSION_SPECS))
    def test_session_run_matches_golden(self, name):
        golden = json.loads((GOLDEN_DIR / "sessions.json").read_text())
        assert golden["specs"][name] == json.loads(
            json.dumps(SESSION_SPECS[name])
        )
        produced = _session_outputs(_run_session_spec(SESSION_SPECS[name]))
        expected = golden["runs"][name]
        assert sorted(produced) == sorted(expected)
        for key in sorted(expected):
            assert json.dumps(produced[key], sort_keys=True) == json.dumps(
                expected[key], sort_keys=True
            ), key
