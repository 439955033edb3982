"""Tests for the shared per-(workload, batch) execution cache."""

import numpy as np
import pytest

from repro.backends import ExecutionCache, get_backend
from repro.backends import cache as cache_module
from repro.errors import BackendError


class TestMemoization:
    def test_reports_are_built_once_per_key(self, monkeypatch):
        calls = []
        real_build = cache_module.build_workload
        monkeypatch.setattr(
            cache_module,
            "build_workload",
            lambda name, **kwargs: calls.append(name) or real_build(name, **kwargs),
        )
        cache = ExecutionCache("cogsys")
        first = cache.report("mimonet", 2)
        second = cache.report("mimonet", 2)
        assert first is second
        assert calls == ["mimonet"]
        assert cache.cached_reports == 1
        cache.report("mimonet", 3)
        assert calls == ["mimonet", "mimonet"]
        assert cache.cached_reports == 2

    def test_accepts_backend_instances_and_names(self):
        by_name = ExecutionCache("a100")
        by_instance = ExecutionCache(get_backend("a100"))
        assert by_name.backend_name == by_instance.backend_name == "a100"
        assert by_name.service_seconds("nvsa", 1) == by_instance.service_seconds(
            "nvsa", 1
        )

    def test_matches_direct_backend_execution(self):
        cache = ExecutionCache("tpu_like")
        from repro.workloads import build_workload

        direct = get_backend("tpu_like").execute(build_workload("nvsa", num_tasks=2))
        assert cache.service_seconds("nvsa", 2) == direct.total_seconds
        assert cache.energy_joules("nvsa", 2) == direct.energy_joules


class TestSchedulerResolution:
    def test_defaults_to_backend_default_scheduler(self):
        assert ExecutionCache("cogsys").scheduler == "adaptive"
        assert ExecutionCache("a100").scheduler == "sequential"

    def test_explicit_scheduler_is_kept(self):
        cache = ExecutionCache("cogsys", scheduler="sequential")
        assert cache.scheduler == "sequential"
        assert cache.report("nvsa", 1).scheduler == "sequential"


class TestErrors:
    def test_invalid_batch_size_rejected(self):
        with pytest.raises(BackendError, match="positive"):
            ExecutionCache("cogsys").report("nvsa", 0)

    @pytest.mark.parametrize("batch_size", [2.5, float("nan"), 2.0, "2", None])
    def test_non_integral_batch_size_rejected(self, batch_size):
        with pytest.raises(BackendError, match="positive integer"):
            ExecutionCache("cogsys").report("nvsa", batch_size)

    def test_numpy_integer_batch_size_accepted(self):
        cache = ExecutionCache("cogsys")
        assert cache.report("nvsa", np.int64(2)) is cache.report("nvsa", 2)

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            ExecutionCache("warp_drive")
