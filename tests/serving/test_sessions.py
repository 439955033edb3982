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
"""

import math

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving.batching import ContinuousBatching
from repro.serving.chaos import ChaosTimeline, chip_failure, power_cap
from repro.serving.fleet import Fleet
from repro.serving.scenarios import run_scenario
from repro.serving.sessions import SessionConfig, _User, run_sessions
from repro.serving.simulator import ServingSimulator
from repro.serving.traffic import choice_cdf

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


def _simulator(scale=1.0, num_chips=2, router="jsq", policy=None, chaos=None):
    return ServingSimulator(
        service_model=SessionFakeModel(scale),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy or ContinuousBatching(max_batch_size=4),
        chaos=chaos,
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
    def test_conservation_holds_through_an_outage(self):
        chaos = ChaosTimeline((
            chip_failure(0, 0.05, 0.1), power_cap(0.2, 0.1, 3.0),
        ))
        config = _config(users=24, think_time_s=0.002, session_gap_s=0.002,
                         start_spread_s=0.02)
        result = run_sessions(_simulator(chaos=chaos), config, seed=2)
        assert result.requests_lost + result.requests_shed > 0
        # Conservation over *submitted* requests: every submission is
        # completed, lost or shed (dropped users resubmit after thinking).
        assert (
            len(result.records) + result.requests_lost + result.requests_shed
            == result.requests_arrived
        )
        assert any(e["kind"] == "fail" for e in result.incidents)
        assert any(e["kind"] == "recover" for e in result.incidents)

    def test_unrecovered_outage_strands_users_mid_conversation(self):
        chaos = ChaosTimeline((chip_failure(0, 0.02, math.inf),))
        config = _config(users=8, start_spread_s=0.01)
        result = run_sessions(
            _simulator(num_chips=1, chaos=chaos), config, seed=0
        )
        # The chip never recovers: stranded users stop submitting, so
        # fewer requests than the population offers — but every submitted
        # one is accounted for.
        assert result.requests_arrived < config.total_requests
        assert result.requests_shed > 0
        assert any(e["kind"] == "stranded" for e in result.incidents)
        assert all(r.finish_s <= 0.02 for r in result.records)


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

    def test_session_override_replaces_open_loop_traffic(self):
        override = _config(users=4, turns=2, sessions_per_user=1,
                           mix=(("nvsa", 1.0),))
        _, result = run_scenario("steady", sessions=override)
        assert result.provenance["closed_loop"]["users"] == 4
        assert result.num_requests == override.total_requests

    def test_closed_loop_runs_refuse_to_shard(self):
        with pytest.raises(ServingError, match="do not shard"):
            run_scenario("session_surge", load_scale=0.05, shards=2)
