"""Tests for the fleet model: service-time memoization and routing."""

from dataclasses import dataclass

import pytest

from repro.backends import ExecutionCache
from repro.backends import cache as cache_module
from repro.errors import BackendError, ServingError
from repro.serving.fleet import (
    Fleet,
    JoinShortestQueueRouter,
    RoundRobinRouter,
    WorkloadAffinityRouter,
    build_router,
)
from repro.serving.traffic import Request


@dataclass
class StubChip:
    chip_id: int
    busy: bool = False
    inflight: int = 0
    queue_depth: int = 0


def _request(workload="nvsa"):
    return Request(request_id=0, workload=workload, arrival_s=0.0)


class TestCogSysServiceCache:
    def test_reports_are_memoized(self, monkeypatch):
        calls = []
        real_build = cache_module.build_workload
        monkeypatch.setattr(
            cache_module,
            "build_workload",
            lambda name, **kwargs: calls.append(name) or real_build(name, **kwargs),
        )
        model = ExecutionCache("cogsys")
        first = model.service_seconds("mimonet", 2)
        second = model.service_seconds("mimonet", 2)
        assert first == second
        assert calls == ["mimonet"]
        assert model.cached_reports == 1

    def test_batching_amortizes_per_request_cost(self):
        # NVSA's adaptive schedule interleaves the tasks of a batch across
        # cells, so a batch of 4 costs clearly less than 4 single launches.
        model = ExecutionCache("cogsys")
        single = model.service_seconds("nvsa", 1)
        batched = model.service_seconds("nvsa", 4)
        assert single < batched < 4 * single

    def test_energy_scales_with_service_time(self):
        model = ExecutionCache("cogsys")
        assert model.energy_joules("mimonet", 2) > model.energy_joules("mimonet", 1)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(BackendError):
            ExecutionCache("cogsys").service_seconds("mimonet", 0)


class TestRoundRobinRouter:
    def test_cycles_through_chips(self):
        router = RoundRobinRouter()
        chips = [StubChip(chip_id) for chip_id in range(3)]
        routed = [router.route(_request(), chips) for _ in range(6)]
        assert routed == [0, 1, 2, 0, 1, 2]


class TestJoinShortestQueueRouter:
    def test_picks_least_pending_chip(self):
        router = JoinShortestQueueRouter()
        chips = [
            StubChip(0, queue_depth=3),
            StubChip(1, queue_depth=1),
            StubChip(2, queue_depth=2),
        ]
        assert router.route(_request(), chips) == 1

    def test_inflight_requests_count_as_pending(self):
        router = JoinShortestQueueRouter()
        chips = [StubChip(0, busy=True, inflight=4), StubChip(1, queue_depth=2)]
        assert router.route(_request(), chips) == 1

    def test_ties_break_to_lowest_chip_id(self):
        router = JoinShortestQueueRouter()
        chips = [StubChip(0), StubChip(1)]
        assert router.route(_request(), chips) == 0


class TestWorkloadAffinityRouter:
    WORKLOADS = ("lvrf", "mimonet", "nvsa", "prae")

    def test_shards_cover_every_chip_when_fleet_is_larger(self):
        router = WorkloadAffinityRouter(8, self.WORKLOADS)
        owned = sorted(chip for owners in router.owners.values() for chip in owners)
        assert owned == list(range(8))
        assert all(len(owners) == 2 for owners in router.owners.values())

    def test_small_fleet_shares_chips(self):
        router = WorkloadAffinityRouter(2, self.WORKLOADS)
        assert all(owners for owners in router.owners.values())
        assert all(
            chip in (0, 1) for owners in router.owners.values() for chip in owners
        )

    def test_routes_only_to_owning_chips(self):
        router = WorkloadAffinityRouter(4, self.WORKLOADS)
        chips = [StubChip(chip_id) for chip_id in range(4)]
        for workload in self.WORKLOADS:
            chosen = router.route(_request(workload), chips)
            assert chosen in router.owners[workload]

    def test_least_loaded_owner_wins(self):
        router = WorkloadAffinityRouter(8, self.WORKLOADS)
        owners = router.owners["lvrf"]
        chips = [StubChip(chip_id) for chip_id in range(8)]
        chips[owners[0]].queue_depth = 5
        assert router.route(_request("lvrf"), chips) == owners[1]

    def test_unknown_workload_rejected(self):
        router = WorkloadAffinityRouter(2, ("nvsa",))
        with pytest.raises(ServingError, match="no shard"):
            router.route(_request("prae"), [StubChip(0), StubChip(1)])

    def test_invalid_construction_rejected(self):
        with pytest.raises(ServingError):
            WorkloadAffinityRouter(0, self.WORKLOADS)
        with pytest.raises(ServingError):
            WorkloadAffinityRouter(2, ())


class TestFleet:
    def test_defaults_and_router_construction(self):
        fleet = Fleet()
        assert fleet.num_chips == 1
        assert isinstance(fleet.make_router(("nvsa",)), RoundRobinRouter)
        assert isinstance(
            Fleet(num_chips=2, router="jsq").make_router(("nvsa",)),
            JoinShortestQueueRouter,
        )
        affinity = Fleet(num_chips=2, router="affinity").make_router(("nvsa", "prae"))
        assert isinstance(affinity, WorkloadAffinityRouter)

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ServingError):
            Fleet(num_chips=0)
        with pytest.raises(ServingError):
            Fleet(router="bogus")
        with pytest.raises(ServingError):
            build_router("bogus", 2, ("nvsa",))
