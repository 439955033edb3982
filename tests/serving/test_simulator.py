"""Tests for the discrete-event serving simulator core."""

import math
import re

import pytest

from repro.errors import ServingError
from repro.serving.batching import ContinuousBatching, FixedSizeBatching, NoBatching
from repro.serving.chaos import ChaosTimeline, straggler
from repro.serving.control import ControllerConfig, run_controlled
from repro.serving.fleet import Fleet
from repro.serving.simulator import ServingSimulator, columnar_chunks
from repro.serving.traffic import PoissonArrivals, Request, WorkloadMix


def _simulator(fake_model, num_chips=1, router="round_robin", policy=None):
    return ServingSimulator(
        service_model=fake_model,
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy or NoBatching(),
    )


class TestValidation:
    def test_empty_stream_rejected(self, fake_model):
        with pytest.raises(ServingError, match="empty request stream"):
            _simulator(fake_model).run([])

    def test_duplicate_request_ids_rejected(self, fake_model):
        requests = [
            Request(request_id=1, workload="nvsa", arrival_s=0.0),
            Request(request_id=1, workload="nvsa", arrival_s=0.1),
        ]
        with pytest.raises(ServingError, match="duplicate request ids"):
            _simulator(fake_model).run(requests)

    @pytest.mark.parametrize("policy", (NoBatching(), ContinuousBatching()))
    @pytest.mark.parametrize("router", ("round_robin", "jsq"))
    def test_stream_workload_missing_from_declared_set(
        self, fake_model, router, policy
    ):
        requests = [
            Request(index, ("lvrf", "nvsa")[index % 2], 0.01 * index)
            for index in range(20)
        ]
        sim = _simulator(fake_model, num_chips=2, router=router, policy=policy)
        with pytest.raises(ServingError, match=re.escape(
            "stream contains workload 'lvrf' missing from the declared "
            "workload set ['nvsa']"
        )):
            sim.run_stream(columnar_chunks(requests, 5), ["nvsa"])


#: ``(arrivals, ids, id the error names)`` of streams the core must refuse
_UNSORTED_STREAMS = {
    "lone back-step": ([0.0, 0.5, 0.25], [0, 1, 2], 2),
    "repeated id in a burst": ([0.0, 1.0, 1.0, 1.0], [0, 1, 2, 2], 2),
    "back-step after a burst": ([0.0, 1.0, 1.0, 0.5], [0, 1, 2, 3], 3),
    # Two 1 s chips saturate at the third arrival, so request 40 steps back
    # inside a saturated span.
    "back-step in a saturated span": (
        [0.01 * i for i in range(40)] + [0.385]
        + [0.01 * i for i in range(41, 60)],
        list(range(60)),
        40,
    ),
}


class TestStreamOrderCheck:
    """The core's own ``(arrival_s, request_id)`` check on raw columns."""

    @pytest.mark.parametrize("case", sorted(_UNSORTED_STREAMS))
    @pytest.mark.parametrize("chunk_rows", (None, 2))
    @pytest.mark.parametrize("vectorize", (True, False))
    @pytest.mark.parametrize("router", ("jsq", "round_robin"))
    def test_unsorted_stream_names_the_request(
        self, fake_model, case, chunk_rows, vectorize, router
    ):
        arrivals, ids, bad = _UNSORTED_STREAMS[case]
        names = ["nvsa"] * len(ids)
        rows = chunk_rows or len(ids)
        chunks = [
            (arrivals[i:i + rows], names[i:i + rows], ids[i:i + rows])
            for i in range(0, len(ids), rows)
        ]
        sim = ServingSimulator(
            service_model=fake_model,
            fleet=Fleet(num_chips=2, router=router),
            batching_policy=NoBatching(),
            vectorize=vectorize,
        )
        with pytest.raises(ServingError, match=re.escape(
            "request stream is not sorted by (arrival_s, request_id) or "
            f"repeats a request id near request {bad}"
        ) + "$"):
            sim.run_stream(chunks, ["nvsa"])


class TestIdsBeyondInt64:
    """Whole-trace results keep int64 ids; streamed runs take any int."""

    REQUESTS = [Request(2**63 + i, "nvsa", 0.01 * i) for i in range(20)]

    @pytest.mark.parametrize("path", ("run", "shards", "controlled"))
    def test_whole_trace_runs_name_the_id(self, fake_model, path):
        sim = _simulator(fake_model, num_chips=2, router="jsq")
        run = {
            "run": lambda: sim.run(self.REQUESTS),
            "shards": lambda: sim.run(self.REQUESTS, shards=2),
            "controlled": lambda: run_controlled(
                sim, ControllerConfig(slo_s=1.0), self.REQUESTS
            ),
        }[path]
        with pytest.raises(ServingError, match=re.escape(
            f"request id {2**63} is outside the int64 range a whole-trace "
            "result needs; serve the stream with run_stream"
        )):
            run()

    def test_run_stream_accepts_them(self, fake_model):
        sim = _simulator(fake_model, num_chips=2, router="jsq")
        result = sim.run_stream(columnar_chunks(self.REQUESTS, 7), ["nvsa"])
        assert result.num_requests == 20


class ConstantCostModel:
    """Every batch costs the same service time and energy."""

    scheduler = "fake"
    cached_reports = 0

    def __init__(self, service_s, energy_j):
        self.service_s = service_s
        self.energy_j = energy_j

    def service_seconds(self, workload, batch_size):
        return self.service_s

    def energy_joules(self, workload, batch_size):
        return self.energy_j


#: every run path that fills a service table: the eager singleton and the
#: vectorized run (``run``, ``run_stream``), the one-chip component engine
#: (``shards``) and deferred dispatch (``chaos``, ``controlled``)
_COST_PATHS = {
    "run": lambda sim, requests: sim.run(requests),
    "run_stream": lambda sim, requests: sim.run_stream(
        columnar_chunks(requests), ["nvsa"]
    ),
    "shards": lambda sim, requests: sim.run(requests, shards=2),
    "chaos": lambda sim, requests: sim.run(requests),
    "controlled": lambda sim, requests: run_controlled(
        sim, ControllerConfig(max_chips=2, admission=False), requests
    ),
}


def _cost_run(path, service_s, energy_j):
    sim = ServingSimulator(
        service_model=ConstantCostModel(service_s, energy_j),
        fleet=Fleet(num_chips=2, router="round_robin"),
        batching_policy=NoBatching(),
        chaos=(
            ChaosTimeline((straggler(0, 100.0, 1.0, 2.0),))
            if path == "chaos" else None
        ),
    )
    requests = [Request(i, "nvsa", 0.01 * i) for i in range(40)]
    return _COST_PATHS[path](sim, requests)


class TestDegenerateServiceModels:
    @pytest.mark.parametrize("path", sorted(_COST_PATHS))
    @pytest.mark.parametrize("quantity", ("service time", "energy"))
    @pytest.mark.parametrize(
        "value", (math.nan, -0.001, math.inf), ids=("nan", "negative", "inf")
    )
    def test_degenerate_cost_is_rejected(self, path, quantity, value):
        costs = {"service time": 0.001, "energy": 0.001, quantity: value}
        message = (
            f"{quantity} {re.escape(repr(value))} for workload 'nvsa' "
            "at batch size 1"
        )
        with pytest.raises(ServingError, match=message):
            _cost_run(path, costs["service time"], costs["energy"])

    @pytest.mark.parametrize("path", sorted(_COST_PATHS))
    def test_zero_cost_is_legal(self, path):
        result = _cost_run(path, 0.0, 0.0)
        assert result.num_requests == 40
        assert result.energy_joules == 0.0
        assert all(latency == 0.0 for latency in result.latencies_s())


class TestSingleChipNoBatching:
    def test_fifo_queueing_matches_hand_trace(self, fake_model, make_requests):
        # Three nvsa requests at t=0 on one chip, 1 s service each
        # (fake model: 1.0 * (0.5 + 0.5)) -> finishes at 1, 2, 3 s.
        requests = make_requests([("nvsa", 0.0), ("nvsa", 0.0), ("nvsa", 0.0)])
        result = _simulator(fake_model).run(requests)
        assert [record.finish_s for record in result.records] == [1.0, 2.0, 3.0]
        assert [record.queue_delay_s for record in result.records] == [0.0, 1.0, 2.0]
        assert result.num_batches == 3
        assert result.mean_batch_size == 1.0

    def test_idle_gaps_do_not_count_as_busy(self, fake_model, make_requests):
        requests = make_requests([("nvsa", 0.0), ("nvsa", 10.0)])
        result = _simulator(fake_model).run(requests)
        assert sum(result.chip_busy_s) == pytest.approx(2.0)
        assert result.horizon_s == pytest.approx(11.0)
        assert result.utilization == pytest.approx(2.0 / 11.0)

    def test_every_request_served_exactly_once(self, fake_model):
        requests = PoissonArrivals(50.0, WorkloadMix.uniform()).generate(1.0, seed=3)
        result = _simulator(fake_model, num_chips=4, router="jsq").run(requests)
        assert result.num_requests == len(requests)
        assert [record.request_id for record in result.records] == [
            request.request_id for request in sorted(requests, key=lambda r: r.request_id)
        ]
        for record in result.records:
            assert record.arrival_s <= record.dispatch_s <= record.finish_s


class TestBatching:
    def test_burst_is_served_as_one_batch(self, fake_model, make_requests):
        requests = make_requests([("nvsa", 0.0)] * 4)
        result = _simulator(
            fake_model, policy=ContinuousBatching(max_batch_size=8)
        ).run(requests)
        assert result.num_batches == 1
        assert result.mean_batch_size == 4.0
        # Fake model: 1.0 * (0.5 + 0.5 * 4) = 2.5 s for the whole batch,
        # versus 4 s if served one by one.
        assert all(record.finish_s == pytest.approx(2.5) for record in result.records)

    def test_fixed_size_timeout_flushes_partial_batch(self, fake_model, make_requests):
        requests = make_requests([("nvsa", 0.0), ("nvsa", 0.1)])
        policy = FixedSizeBatching(batch_size=8, max_wait_s=0.5)
        result = _simulator(fake_model, policy=policy).run(requests)
        assert result.num_batches == 1
        # The wake-up fires at arrival + max_wait, then the batch runs 1.5 s.
        assert all(
            record.dispatch_s == pytest.approx(0.5) for record in result.records
        )

    def test_stale_wake_event_does_not_stretch_the_horizon(
        self, fake_model, make_requests
    ):
        # The partial group at t=0 schedules a wake at t=5; the second
        # arrival fills the batch at t=0.1 (service 1.5 s -> finish 1.6 s).
        # The stale wake then fires into an empty system and must not move
        # the horizon, or throughput/utilization would be silently deflated.
        requests = make_requests([("nvsa", 0.0), ("nvsa", 0.1)])
        policy = FixedSizeBatching(batch_size=2, max_wait_s=5.0)
        result = _simulator(fake_model, policy=policy).run(requests)
        assert result.num_batches == 1
        assert result.horizon_s == pytest.approx(1.6)
        assert result.throughput_rps == pytest.approx(2 / 1.6)

    def test_mixed_workload_batch_from_a_policy_is_rejected(self, fake_model):
        class BrokenPolicy(NoBatching):
            def select(self, queue, now_s):
                from repro.serving.batching import BatchDecision

                return BatchDecision(batch=list(queue)) if queue else BatchDecision(None)

        requests = [
            Request(request_id=0, workload="nvsa", arrival_s=0.0),
            Request(request_id=1, workload="prae", arrival_s=0.0),
        ]
        with pytest.raises(ServingError, match="share one workload"):
            _simulator(fake_model, policy=BrokenPolicy()).run(requests)

    def test_select_only_policy_must_batch_the_oldest_requests(self, fake_model):
        # The select adapter only accepts one workload's oldest requests;
        # newest-first is a non-prefix subset and gets a typed error.
        from repro.serving.batching import BatchDecision, BatchingPolicy

        class NewestFirst(BatchingPolicy):
            name = "newest_first"

            def select(self, queue, now_s):
                return BatchDecision(batch=[queue[-1]]) if queue else BatchDecision(None)

        requests = [
            Request(request_id=index, workload="nvsa", arrival_s=0.0)
            for index in range(3)
        ]
        with pytest.raises(ServingError, match="oldest queued requests"):
            _simulator(fake_model, policy=NewestFirst()).run(requests)

    def test_batches_never_mix_workloads(self, fake_model):
        requests = PoissonArrivals(100.0, WorkloadMix.uniform()).generate(0.5, seed=8)
        result = _simulator(
            fake_model, policy=ContinuousBatching(max_batch_size=8)
        ).run(requests)
        by_batch = {}
        for record in result.records:
            by_batch.setdefault((record.chip, record.dispatch_s), set()).add(
                record.workload
            )
        assert all(len(workloads) == 1 for workloads in by_batch.values())


class TestDispatchOrder:
    """Pin the exact dequeue/dispatch order of the slot-keyed queues.

    Regression test for the old ``id()``-based list scan: selected
    requests must be removed head-first from their workload group, the
    remaining requests must keep FIFO order, and group precedence must
    follow first-occurrence order on arrival ties.
    """

    def test_interleaved_workloads_dispatch_in_pinned_order(self, fake_model):
        # One chip; nvsa ids 0/2/4 and mimonet ids 1/3 all land at t=0.
        requests = [
            Request(request_id=0, workload="nvsa", arrival_s=0.0),
            Request(request_id=1, workload="mimonet", arrival_s=0.0),
            Request(request_id=2, workload="nvsa", arrival_s=0.0),
            Request(request_id=3, workload="mimonet", arrival_s=0.0),
            Request(request_id=4, workload="nvsa", arrival_s=0.0),
        ]
        policy = FixedSizeBatching(batch_size=2, max_wait_s=10.0)
        result = _simulator(fake_model, policy=policy).run(requests)

        batches = {}
        for record in result.records:
            batches.setdefault(record.dispatch_s, []).append(record)
        dispatch_times = sorted(batches)
        ordered = [
            sorted(r.request_id for r in batches[t]) for t in dispatch_times
        ]
        # Batch 1: both groups are full with equal head arrivals; nvsa wins
        # on first-occurrence order and ships its two oldest (0, 2) — NOT
        # (0, 4) or any other subset.  Batch 2: the full mimonet pair.
        # Batch 3: the leftover nvsa request, flushed by the timeout wake.
        assert ordered == [[0, 2], [1, 3], [4]]
        # nvsa pair: 1.5 s; mimonet pair starts right after it.
        assert dispatch_times[0] == 0.0
        assert dispatch_times[1] == pytest.approx(1.5)
        # The partial nvsa group waits for the max_wait timeout, not the
        # chip: it dispatches at arrival + max_wait.
        assert dispatch_times[2] == pytest.approx(10.0)
        # FIFO within the workload: id 2 rode in the first batch while the
        # younger id 4 waited.
        finish_by_id = {r.request_id: r.finish_s for r in result.records}
        assert finish_by_id[2] < finish_by_id[4]

    def test_subclass_plan_is_not_bypassed_by_inherited_shortcuts(
        self, fake_model, make_requests
    ):
        # A subclass overriding plan() (and select() to match) inherits
        # eager_singleton/single_group_cap from ContinuousBatching, but the
        # dispatch shortcuts must NOT bypass its custom logic: this policy
        # refuses to dispatch before two requests are queued.
        from repro.serving.batching import BatchDecision, ContinuousBatching

        class WaitForPair(ContinuousBatching):
            def select(self, queue, now_s):
                if len(queue) < 2:
                    return BatchDecision(batch=None)
                return super().select(queue, now_s)

            def plan(self, groups, now_s):
                if sum(len(entries) for entries in groups.values()) < 2:
                    return None, 0, None
                return super().plan(groups, now_s)

        requests = make_requests([("nvsa", 0.0), ("nvsa", 3.0)])
        result = _simulator(fake_model, policy=WaitForPair()).run(requests)
        # The first lone arrival must wait for the second — one batch of 2,
        # dispatched at the second arrival, not an eager singleton at t=0.
        assert result.num_batches == 1
        assert all(r.dispatch_s == pytest.approx(3.0) for r in result.records)
        assert all(r.batch_size == 2 for r in result.records)

    def test_continuous_batching_prefers_urgent_group_deterministically(
        self, fake_model
    ):
        # Same-instant burst across two workloads with one shared SLO: the
        # deadline tie breaks on workload name, so 'mimonet' < 'nvsa' ships
        # first no matter the queue interleaving.
        requests = [
            Request(request_id=0, workload="nvsa", arrival_s=0.0),
            Request(request_id=1, workload="mimonet", arrival_s=0.0),
            Request(request_id=2, workload="nvsa", arrival_s=0.0),
        ]
        policy = ContinuousBatching(max_batch_size=8, slo_s=5.0)
        result = _simulator(fake_model, policy=policy).run(requests)
        first_batch = min(result.records, key=lambda r: r.dispatch_s)
        assert first_batch.workload == "mimonet"


class TestFleetBehaviour:
    def test_round_robin_spreads_requests(self, fake_model, make_requests):
        requests = make_requests([("nvsa", t / 100.0) for t in range(8)])
        result = _simulator(fake_model, num_chips=4).run(requests)
        assert result.chip_requests == (2, 2, 2, 2)

    def test_jsq_avoids_the_backed_up_chip(self, fake_model, make_requests):
        # Two chips; a slow 1 s nvsa burst lands first, then quick requests.
        requests = make_requests(
            [("nvsa", 0.0), ("mimonet", 0.01), ("mimonet", 0.02), ("mimonet", 0.03)]
        )
        result = _simulator(fake_model, num_chips=2, router="jsq").run(requests)
        nvsa_chip = result.records[0].chip
        quick = [record for record in result.records if record.workload == "mimonet"]
        assert sum(1 for record in quick if record.chip != nvsa_chip) >= 2

    def test_more_chips_reduce_latency_under_load(self, fake_model):
        requests = PoissonArrivals(
            3.0, WorkloadMix({"nvsa": 1.0})
        ).generate(3.0, seed=5)
        single = _simulator(fake_model, num_chips=1).run(requests)
        quad = _simulator(fake_model, num_chips=4, router="jsq").run(requests)
        assert max(quad.latencies_s()) < max(single.latencies_s())

    def test_energy_accumulates_per_batch(self, fake_model, make_requests):
        requests = make_requests([("nvsa", 0.0), ("nvsa", 5.0)])
        result = _simulator(fake_model).run(requests)
        # Fake model: 1 W chip, two 1 s batches.
        assert result.energy_joules == pytest.approx(2.0)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self, fake_model):
        requests = PoissonArrivals(200.0, WorkloadMix.uniform()).generate(1.0, seed=13)
        first = _simulator(
            fake_model, num_chips=3, router="jsq", policy=ContinuousBatching(8)
        ).run(requests)
        second = _simulator(
            fake_model, num_chips=3, router="jsq", policy=ContinuousBatching(8)
        ).run(requests)
        assert first.latencies_s() == second.latencies_s()
        assert first.chip_requests == second.chip_requests
        assert first.energy_joules == second.energy_joules


class TestProvenance:
    def test_result_carries_run_configuration(self, fake_model, make_requests):
        result = _simulator(fake_model, num_chips=2, router="jsq").run(
            make_requests([("nvsa", 0.0)])
        )
        assert result.provenance["num_chips"] == 2
        assert result.provenance["router"] == "jsq"
        assert result.provenance["batching_policy"] == "none"
