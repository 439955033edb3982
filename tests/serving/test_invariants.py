"""Property-based invariant harness for the serving event core.

Hypothesis generates adversarial request streams — simultaneous bursts,
duplicate arrival instants, skewed workload mixes — and every stream is
served across **all** batching policies and **all** routers.  Three
invariants must hold unconditionally:

* **Conservation** — every arrival completes exactly once (no loss, no
  duplication), whatever the policy/router combination.
* **Causality** — ``arrival <= dispatch <= finish`` for every request.
* **Per-chip non-overlap** — a chip never executes two batches at once:
  ordered by dispatch time, each batch on a chip starts at or after the
  previous batch's finish.

A fourth property pins the dispatch path itself: each built-in policy's
own ``plan`` must produce byte-identical results to the base class's
``plan`` adapter over the same policy's ``select``, for every policy, on
every generated stream, with and without chaos and water-fill spans.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import simulator as simulator_module
from repro.serving.batching import (
    BatchingPolicy,
    ContinuousBatching,
    FixedSizeBatching,
    NoBatching,
)
from repro.serving.chaos import ChaosTimeline, chip_failure
from repro.serving.fleet import Fleet
from repro.serving.simulator import ServingSimulator
from repro.serving.traffic import Request

WORKLOADS = ("lvrf", "mimonet", "nvsa", "prae")

ROUTERS = ("round_robin", "jsq", "affinity", "symbolic_affinity")


class _Report:
    def __init__(self, symbolic_fraction):
        self.symbolic_fraction = symbolic_fraction


class InvariantFakeModel:
    """Deterministic service model covering every router's needs.

    Service times differ per workload and grow sub-linearly with batch
    size; ``report`` supplies the symbolic fractions the symbolic-affinity
    router asks for.
    """

    scheduler = "fake"
    cached_reports = 0

    BASE = {"lvrf": 0.8, "mimonet": 0.2, "nvsa": 1.0, "prae": 0.5}
    SYMBOLIC = {"lvrf": 0.9, "mimonet": 0.1, "nvsa": 0.8, "prae": 0.3}

    def service_seconds(self, workload, batch_size):
        return self.BASE[workload] * (0.5 + 0.5 * batch_size)

    def energy_joules(self, workload, batch_size):
        return self.service_seconds(workload, batch_size)

    def report(self, workload, batch_size):
        return _Report(self.SYMBOLIC[workload])


def _policies():
    """One instance of every batching policy, with batching-visible knobs."""
    return (
        NoBatching(),
        FixedSizeBatching(batch_size=3, max_wait_s=0.4),
        ContinuousBatching(max_batch_size=4, slo_s=2.0),
    )


#: request streams: arrivals on a 0.1 s grid so simultaneous-arrival and
#: wake-up tie-breaking paths are exercised, not just the generic case
request_streams = st.lists(
    st.tuples(
        st.sampled_from(WORKLOADS),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=40,
).map(
    lambda entries: [
        Request(request_id=index, workload=workload, arrival_s=tick / 10.0)
        for index, (workload, tick) in enumerate(
            sorted(entries, key=lambda e: e[1])
        )
    ]
)


def _run(requests, num_chips, router, policy, shards=1, chaos=None):
    simulator = ServingSimulator(
        service_model=InvariantFakeModel(),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=policy,
        chaos=chaos,
    )
    return simulator.run(requests, shards=shards)


def _batches_by_chip(result):
    """Per chip: the (dispatch, finish) spans of its batches, sorted."""
    spans = {}
    for record in result.records:
        spans.setdefault(record.chip, set()).add(
            (record.dispatch_s, record.finish_s)
        )
    return {chip: sorted(batch) for chip, batch in spans.items()}


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(stream=request_streams, num_chips=st.integers(1, 3))
    def test_conservation_causality_nonoverlap_all_policies_all_routers(
        self, stream, num_chips
    ):
        for router in ROUTERS:
            for policy in _policies():
                result = _run(stream, num_chips, router, policy)

                # Conservation: every arrival completes exactly once.
                assert result.num_requests == len(stream)
                assert [r.request_id for r in result.records] == [
                    request.request_id for request in stream
                ]

                # Causality per request.
                for record in result.records:
                    assert (
                        record.arrival_s <= record.dispatch_s <= record.finish_s
                    )
                    assert math.isfinite(record.finish_s)

                # Per-chip non-overlap of service intervals.
                for spans in _batches_by_chip(result).values():
                    for (_, prev_finish), (next_dispatch, _) in zip(
                        spans, spans[1:]
                    ):
                        assert next_dispatch >= prev_finish

    @settings(max_examples=25, deadline=None)
    @given(stream=request_streams, num_chips=st.integers(1, 3))
    def test_batches_are_single_workload_and_accounting_adds_up(
        self, stream, num_chips
    ):
        for router in ROUTERS:
            for policy in _policies():
                result = _run(stream, num_chips, router, policy)
                by_batch = {}
                for record in result.records:
                    by_batch.setdefault(
                        (record.chip, record.dispatch_s, record.finish_s), []
                    ).append(record)
                assert len(by_batch) == result.num_batches
                for members in by_batch.values():
                    assert len({r.workload for r in members}) == 1
                    # batch_size annotations agree with the actual batch
                    assert {r.batch_size for r in members} == {len(members)}
                # chip occupancy equals the sum of its batch spans
                for chip, spans in _batches_by_chip(result).items():
                    busy = sum(finish - start for start, finish in spans)
                    assert math.isclose(
                        busy, result.chip_busy_s[chip], rel_tol=1e-9
                    )
                assert sum(result.chip_requests) == len(stream)


class _ForcedGenericPolicy(BatchingPolicy):
    """Wrapper that hides a policy's ``plan``, forcing the ``select`` adapter."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.single_group_cap = None
        self.eager_singleton = False

    def select(self, queue, now_s):
        return self.inner.select(queue, now_s)


#: dense bursty streams: arrivals on a 0.01 s grid packed tightly enough
#: that a 2-chip fleet saturates and whole runs dispatch as saturated spans
dense_streams = st.lists(
    st.tuples(
        st.sampled_from(WORKLOADS),
        st.integers(min_value=0, max_value=300),
    ),
    min_size=60,
    max_size=160,
).map(
    lambda entries: [
        Request(request_id=index, workload=workload, arrival_s=tick / 100.0)
        for index, (workload, tick) in enumerate(
            sorted(entries, key=lambda e: e[1])
        )
    ]
)


#: ``FILL_MIN_RUN`` values the saturated-span tests run at: the shipped
#: one, under which dense streams' spans drain through the saturated-span
#: loop, and one small enough that they reach the numpy water fill
FILL_MIN_RUNS = (simulator_module.FILL_MIN_RUN, 8)


def _fill_min_run(value):
    """Run the event core with ``FILL_MIN_RUN`` set to ``value``."""
    return mock.patch.object(simulator_module, "FILL_MIN_RUN", value)


#: a fixed dense stream (two arrivals per 0.01 s tick) whose saturated
#: spans reach the water fill at the small ``FILL_MIN_RUNS`` value on 2-9
#: jsq chips under every policy
SATURATING_STREAM = [
    Request(index, WORKLOADS[index * 7 % 4], (index // 2) / 100.0)
    for index in range(160)
]


def _policy_factories():
    return (
        lambda: NoBatching(),
        lambda: FixedSizeBatching(batch_size=3, max_wait_s=0.4),
        lambda: ContinuousBatching(max_batch_size=4, slo_s=2.0),
    )


def _assert_identical(fast, generic):
    assert fast.records == generic.records
    assert fast.chip_busy_s == generic.chip_busy_s
    assert fast.chip_requests == generic.chip_requests
    assert fast.energy_joules == generic.energy_joules
    assert fast.num_batches == generic.num_batches
    assert fast.horizon_s == generic.horizon_s
    assert fast.requests_lost == generic.requests_lost
    assert fast.requests_shed == generic.requests_shed
    assert fast.incidents == generic.incidents


#: chaos timelines for a 3-chip fleet: seeded failure/straggler storms over
#: the request streams' 4 s span, or one outage that never recovers (its
#: queue is swept as stranded when the heap drains)
chaos_timelines = st.one_of(
    st.builds(
        lambda seed: ChaosTimeline.seeded(
            seed, num_chips=3, horizon_s=4.0, failure_rate=0.5,
            straggler_rate=0.5, mean_duration_s=0.6, multiplier=3.0,
        ),
        st.integers(0, 50),
    ),
    st.builds(
        lambda chip, tick: ChaosTimeline(
            (chip_failure(chip, tick / 10.0, math.inf),)
        ),
        st.integers(0, 2),
        st.integers(0, 40),
    ),
)


class TestFastPathEquivalence:
    """Built-in ``plan`` must match the ``select`` adapter exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        stream=request_streams,
        num_chips=st.integers(1, 3),
        router=st.sampled_from(ROUTERS),
    )
    def test_fast_and_generic_paths_are_byte_identical(
        self, stream, num_chips, router
    ):
        for policy_factory in _policy_factories():
            fast = _run(stream, num_chips, router, policy_factory())
            generic = _run(
                stream, num_chips, router,
                _ForcedGenericPolicy(policy_factory()),
            )
            _assert_identical(fast, generic)

    @settings(max_examples=20, deadline=None)
    @given(
        stream=request_streams,
        chaos=chaos_timelines,
        router=st.sampled_from(ROUTERS),
    )
    def test_fast_and_generic_paths_agree_under_chaos(
        self, stream, chaos, router
    ):
        for policy_factory in _policy_factories():
            fast = _run(stream, 3, router, policy_factory(), chaos=chaos)
            generic = _run(
                stream, 3, router, _ForcedGenericPolicy(policy_factory()),
                chaos=chaos,
            )
            _assert_identical(fast, generic)

    @pytest.mark.parametrize("fill_min_run", FILL_MIN_RUNS)
    @settings(max_examples=12, deadline=None)
    @given(stream=dense_streams, num_chips=st.integers(2, 9))
    def test_fast_and_generic_paths_agree_on_water_fill_spans(
        self, fill_min_run, stream, num_chips
    ):
        with _fill_min_run(fill_min_run):
            for policy_factory in _policy_factories():
                fast = _run(stream, num_chips, "jsq", policy_factory())
                generic = _run(
                    stream, num_chips, "jsq",
                    _ForcedGenericPolicy(policy_factory()),
                )
                _assert_identical(fast, generic)

    def test_select_only_policy_rides_water_fill_spans(self):
        # Two chips saturated by 200 back-to-back arrivals: the select
        # adapter shares the slot-keyed queues, so whole spans route
        # through the vectorized water fill (once spans that short reach
        # it).
        stream = [
            Request(index, WORKLOADS[index % 4], index / 1000.0)
            for index in range(200)
        ]
        with _fill_min_run(48):
            generic = _run(
                stream, 2, "jsq", _ForcedGenericPolicy(NoBatching())
            )
            fast = _run(stream, 2, "jsq", NoBatching())
        assert generic.provenance["event_paths"]["water_fill_requests"] > 0
        _assert_identical(fast, generic)


class TestShardedEquivalence:
    """Sharded execution must merge back to the single-shard result."""

    @settings(max_examples=20, deadline=None)
    @given(
        stream=request_streams,
        num_chips=st.integers(2, 4),
        shards=st.integers(2, 4),
        router=st.sampled_from(("round_robin", "affinity")),
    )
    def test_sharded_run_matches_single_shard(
        self, stream, num_chips, shards, router
    ):
        for policy in _policies():
            base = _run(stream, num_chips, router, policy)
            sharded = _run(stream, num_chips, router, policy, shards=shards)
            assert sharded.records == base.records
            assert sharded.chip_busy_s == base.chip_busy_s
            assert sharded.chip_requests == base.chip_requests
            assert sharded.num_batches == base.num_batches
            assert sharded.horizon_s == base.horizon_s
            assert math.isclose(
                sharded.energy_joules, base.energy_joules, rel_tol=1e-12
            )
            assert sharded.provenance["shards"] == shards


class TestCoupledEngineEquivalence:
    """The water-filling jsq engine must match the scalar reference loop.

    Dense arrival runs saturate the fleet, so whole spans dispatch
    through the saturated-span loop or, past ``FILL_MIN_RUN`` arrivals,
    the vectorized water-fill, and the indexed min-queue; each test runs
    at the shipped ``FILL_MIN_RUN`` and at a small one that sends these
    short streams' spans to the water fill.  ``vectorize=False`` forces
    the per-request scalar reference loop on the same stream.  Records, fleet accounting, telemetry windows and
    the streamed path across chunk boundaries must all agree byte for
    byte, for every policy and chip counts 2-9.
    """

    @staticmethod
    def _run_jsq(requests, num_chips, policy, vectorize, **kwargs):
        simulator = ServingSimulator(
            service_model=InvariantFakeModel(),
            fleet=Fleet(num_chips=num_chips, router="jsq"),
            batching_policy=policy,
            vectorize=vectorize,
        )
        return simulator.run(requests, **kwargs)

    def _assert_matches_scalar(self, stream, num_chips, policy):
        """Run ``stream`` both ways and return the vectorized result."""
        fast = self._run_jsq(
            stream, num_chips, policy, True, telemetry_window_s=0.05
        )
        slow = self._run_jsq(
            stream, num_chips, policy, False, telemetry_window_s=0.05
        )
        assert fast.provenance["coupled_engine"] == "water_fill"
        assert slow.provenance["coupled_engine"] == "scalar"
        assert fast.records == slow.records
        assert fast.chip_busy_s == slow.chip_busy_s
        assert fast.chip_requests == slow.chip_requests
        assert fast.energy_joules == slow.energy_joules
        assert fast.num_batches == slow.num_batches
        assert fast.horizon_s == slow.horizon_s
        assert fast.telemetry == slow.telemetry
        return fast

    @pytest.mark.parametrize("fill_min_run", FILL_MIN_RUNS)
    @settings(max_examples=12, deadline=None)
    @given(stream=dense_streams, num_chips=st.integers(2, 9))
    def test_water_fill_matches_scalar_reference(
        self, fill_min_run, stream, num_chips
    ):
        with _fill_min_run(fill_min_run):
            for policy in _policies():
                self._assert_matches_scalar(stream, num_chips, policy)

    @pytest.mark.parametrize("num_chips", range(2, 10))
    def test_small_fill_min_run_reaches_water_fill(self, num_chips):
        with _fill_min_run(FILL_MIN_RUNS[-1]):
            for policy in _policies():
                fast = self._assert_matches_scalar(
                    SATURATING_STREAM, num_chips, policy
                )
                paths = fast.provenance["event_paths"]
                assert paths["water_fill_requests"] > 0

    @pytest.mark.parametrize("fill_min_run", FILL_MIN_RUNS)
    @settings(max_examples=10, deadline=None)
    @given(
        stream=dense_streams,
        num_chips=st.integers(2, 9),
        chunk_size=st.sampled_from((7, 33, 4096)),
    )
    def test_streamed_water_fill_matches_scalar_across_chunks(
        self, fill_min_run, stream, num_chips, chunk_size
    ):
        from repro.serving.simulator import columnar_chunks

        workloads = tuple(dict.fromkeys(r.workload for r in stream))
        for policy in _policies():
            results = []
            for vectorize in (True, False):
                simulator = ServingSimulator(
                    service_model=InvariantFakeModel(),
                    fleet=Fleet(num_chips=num_chips, router="jsq"),
                    batching_policy=policy,
                    vectorize=vectorize,
                )
                with _fill_min_run(fill_min_run):
                    results.append(simulator.run_stream(
                        columnar_chunks(stream, chunk_size), workloads,
                        telemetry_window_s=0.05,
                    ))
            fast, slow = results
            assert fast.chip_busy_s == slow.chip_busy_s
            assert fast.chip_requests == slow.chip_requests
            assert fast.energy_joules == slow.energy_joules
            assert fast.num_batches == slow.num_batches
            assert fast.horizon_s == slow.horizon_s
            assert fast.latency_s.tobytes() == slow.latency_s.tobytes()
            assert fast.queue_delay_s.tobytes() == slow.queue_delay_s.tobytes()
            assert fast.telemetry == slow.telemetry
