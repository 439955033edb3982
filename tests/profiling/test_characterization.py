"""Tests for the Section-III characterization utilities."""

import pytest

from repro.backends import get_backend
from repro.profiling import (
    KERNEL_PROFILE,
    memory_footprint,
    roofline_points,
    runtime_breakdown,
    symbolic_operation_breakdown,
    task_size_scaling,
)
from repro.workloads import build_workload
from repro.workloads.nvsa import build_nvsa_workload as nvsa_builder


@pytest.fixture(scope="module")
def nvsa():
    return build_workload("nvsa")


@pytest.fixture(scope="module")
def gpu():
    return get_backend("rtx2080ti")


class TestRuntimeBreakdown:
    def test_fractions_sum_to_one(self, nvsa, gpu):
        breakdown = runtime_breakdown(nvsa, gpu)
        assert breakdown.neural_fraction + breakdown.symbolic_fraction == pytest.approx(1.0)
        assert breakdown.symbolic_fraction > 0.5

    def test_task_size_scaling_grows_runtime(self, gpu):
        breakdowns = task_size_scaling(nvsa_builder, gpu, grid_sizes=(2, 3))
        assert breakdowns[1].total_seconds > breakdowns[0].total_seconds

    def test_legacy_bare_device_model_still_accepted(self, nvsa, gpu):
        # Pre-backend-layer call shape: a DeviceModel instead of a Backend.
        legacy = runtime_breakdown(nvsa, gpu.model)
        wrapped = runtime_breakdown(nvsa, gpu)
        assert legacy == wrapped
        assert symbolic_operation_breakdown(nvsa, gpu.model) == (
            symbolic_operation_breakdown(nvsa, gpu)
        )


class TestMemoryFootprint:
    def test_footprint_fields(self, nvsa):
        footprint = memory_footprint(nvsa)
        assert footprint.total_bytes == nvsa.weight_bytes + nvsa.codebook_bytes
        assert 0 <= footprint.codebook_fraction <= 1
        assert footprint.total_megabytes > 1


class TestRoofline:
    def test_symbolic_stage_is_memory_bound_on_gpu(self, nvsa, gpu):
        points = roofline_points(nvsa, gpu)
        assert points["symbolic"].memory_bound
        assert points["neural"].arithmetic_intensity > points["symbolic"].arithmetic_intensity

    def test_accepts_bare_generic_device_and_rejects_cycle_models(self, nvsa, gpu):
        from repro.backends import get_backend
        from repro.errors import BackendError

        wrapped = roofline_points(nvsa, gpu)
        bare = roofline_points(nvsa, gpu.model)  # legacy call shape
        assert bare["symbolic"].arithmetic_intensity == wrapped[
            "symbolic"
        ].arithmetic_intensity
        with pytest.raises(BackendError, match="roofline"):
            roofline_points(nvsa, get_backend("cogsys"))


class TestSymbolicBreakdown:
    def test_shares_sum_to_one_and_circconv_dominates(self, nvsa, gpu):
        shares = symbolic_operation_breakdown(nvsa, gpu)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["circconv"] + shares["matvec"] > 0.5


class TestKernelProfile:
    def test_published_table_structure(self):
        assert len(KERNEL_PROFILE) == 4
        for metrics in KERNEL_PROFILE.values():
            assert set(metrics) >= {"compute_throughput", "dram_bw_utilization"}
