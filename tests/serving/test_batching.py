"""Tests for the batching policies."""

import pytest

from repro.errors import ServingError
from repro.serving.batching import (
    BATCHING_POLICIES,
    Batch,
    ContinuousBatching,
    FixedSizeBatching,
    NoBatching,
    build_policy,
)
from repro.serving.traffic import Request


def _queue(entries):
    return tuple(
        Request(request_id=index, workload=workload, arrival_s=arrival)
        for index, (workload, arrival) in enumerate(entries)
    )


class TestBatch:
    def test_size_and_validation(self):
        requests = _queue([("nvsa", 0.0), ("nvsa", 0.1)])
        assert Batch("nvsa", requests, formed_s=0.2).size == 2
        with pytest.raises(ServingError):
            Batch("nvsa", (), formed_s=0.0)
        with pytest.raises(ServingError):
            Batch("nvsa", _queue([("nvsa", 0.0), ("prae", 0.1)]), formed_s=0.2)


class TestNoBatching:
    def test_dispatches_head_alone(self):
        queue = _queue([("nvsa", 0.0), ("nvsa", 0.1)])
        decision = NoBatching().select(queue, now_s=0.2)
        assert decision.batch == [queue[0]]
        assert decision.wake_s is None

    def test_empty_queue_waits(self):
        assert NoBatching().select((), now_s=0.0).batch is None


class TestFixedSizeBatching:
    def test_full_group_dispatches_immediately(self):
        policy = FixedSizeBatching(batch_size=2, max_wait_s=10.0)
        queue = _queue([("nvsa", 0.0), ("prae", 0.1), ("nvsa", 0.2)])
        decision = policy.select(queue, now_s=0.2)
        assert [r.request_id for r in decision.batch] == [0, 2]

    def test_partial_group_waits_until_timeout(self):
        policy = FixedSizeBatching(batch_size=4, max_wait_s=1.0)
        queue = _queue([("nvsa", 0.5)])
        waiting = policy.select(queue, now_s=0.6)
        assert waiting.batch is None
        assert waiting.wake_s == pytest.approx(1.5)
        expired = policy.select(queue, now_s=1.5)
        assert [r.request_id for r in expired.batch] == [0]

    def test_oldest_full_group_wins(self):
        policy = FixedSizeBatching(batch_size=2, max_wait_s=10.0)
        queue = _queue(
            [("prae", 0.3), ("nvsa", 0.1), ("prae", 0.4), ("nvsa", 0.2)]
        )
        decision = policy.select(queue, now_s=0.5)
        assert all(request.workload == "nvsa" for request in decision.batch)

    def test_batch_capped_at_batch_size(self):
        policy = FixedSizeBatching(batch_size=2, max_wait_s=10.0)
        queue = _queue([("nvsa", t / 10) for t in range(5)])
        assert len(policy.select(queue, now_s=1.0).batch) == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServingError):
            FixedSizeBatching(batch_size=0)
        with pytest.raises(ServingError):
            FixedSizeBatching(batch_size=2, max_wait_s=-1.0)
        with pytest.raises(ServingError):
            FixedSizeBatching(batch_size=2, max_wait_s=float("nan"))
        # An unbounded wait stays legal (full batches only).
        unbounded = FixedSizeBatching(batch_size=2, max_wait_s=float("inf"))
        assert unbounded.max_wait_s == float("inf")


class TestContinuousBatching:
    def test_never_idles_a_chip_with_queued_work(self):
        policy = ContinuousBatching(max_batch_size=8)
        queue = _queue([("nvsa", 0.0)])
        decision = policy.select(queue, now_s=0.0)
        assert [r.request_id for r in decision.batch] == [0]
        assert decision.wake_s is None

    def test_takes_whole_group_up_to_cap(self):
        policy = ContinuousBatching(max_batch_size=3)
        queue = _queue([("nvsa", t / 10) for t in range(5)])
        decision = policy.select(queue, now_s=1.0)
        assert [r.request_id for r in decision.batch] == [0, 1, 2]

    def test_most_urgent_head_of_line_goes_first(self):
        policy = ContinuousBatching(max_batch_size=8, slo_s=1.0)
        queue = _queue([("prae", 0.5), ("nvsa", 0.1), ("prae", 0.6)])
        decision = policy.select(queue, now_s=0.7)
        assert all(request.workload == "nvsa" for request in decision.batch)

    def test_per_workload_slo_preempts_an_older_slack_group(self):
        # prae arrived first but has 5 s of slack; nvsa's 0.1 s SLO gives it
        # the earlier deadline (0.3 < 5.1), so EDF picks nvsa.
        policy = ContinuousBatching(
            max_batch_size=8, slo_s={"nvsa": 0.1, "prae": 5.0}
        )
        queue = _queue([("prae", 0.1), ("nvsa", 0.2)])
        decision = policy.select(queue, now_s=0.25)
        assert all(request.workload == "nvsa" for request in decision.batch)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServingError):
            ContinuousBatching(max_batch_size=0)
        with pytest.raises(ServingError):
            ContinuousBatching(max_batch_size=2, slo_s=0.0)
        with pytest.raises(ServingError):
            ContinuousBatching(max_batch_size=2, slo_s={"nvsa": -1.0})
        with pytest.raises(ServingError):
            ContinuousBatching(max_batch_size=2, slo_s=float("nan"))
        with pytest.raises(ServingError):
            ContinuousBatching(max_batch_size=2, slo_s={"nvsa": float("nan")})


class TestRegistry:
    def test_known_policies(self):
        assert set(BATCHING_POLICIES) == {"none", "fixed", "continuous"}
        assert isinstance(build_policy("none"), NoBatching)
        assert isinstance(build_policy("fixed", batch_size=4), FixedSizeBatching)
        assert isinstance(build_policy("continuous"), ContinuousBatching)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServingError, match="unknown batching policy"):
            build_policy("bogus")
