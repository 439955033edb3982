"""Tests for the CogSys accelerator model."""

import pytest

from repro.backends.cogsys import CogSysBackend
from repro.core import Precision
from repro.errors import HardwareConfigError
from repro.hardware import CogSysAccelerator, CogSysConfig
from repro.hardware.mapping import MappingMode
from repro.workloads import build_mimonet_workload, build_nvsa_workload
from repro.workloads.builders import circconv_kernel, elementwise_kernel, gemm_kernel


@pytest.fixture(scope="module")
def accelerator():
    return CogSysAccelerator()


@pytest.fixture(scope="module")
def nvsa_workload():
    return build_nvsa_workload()


class TestSpecification:
    def test_area_and_power_match_fig14(self, accelerator):
        assert accelerator.area_mm2() == pytest.approx(4.0, abs=0.1)
        assert accelerator.power_watts == pytest.approx(1.48, abs=0.02)

    def test_fp8_configuration_keeps_area_overhead_below_5_percent(self):
        fp8 = CogSysAccelerator(CogSysConfig(precision=Precision.FP8))
        assert fp8.area_power.reconfigurability_overhead < 0.05


class TestKernelCycles:
    def test_circconv_uses_bubble_streaming(self, accelerator):
        kernel = circconv_kernel("cc", vector_dim=1024, count=210)
        cycles = accelerator.kernel_cycles(kernel)
        decision = accelerator.circconv_mapping(1024, 210)
        assert cycles >= decision.cycles
        assert decision.mode is MappingMode.TEMPORAL

    def test_without_nspe_mode_circconv_is_much_slower(self, accelerator):
        ablated = CogSysAccelerator(reconfigurable_symbolic=False)
        kernel = circconv_kernel("cc", vector_dim=1024, count=210)
        assert ablated.kernel_cycles(kernel) > 3 * accelerator.kernel_cycles(kernel)

    def test_gemm_scales_with_allocated_cells(self, accelerator):
        kernel = gemm_kernel("g", m=4096, k=512, n=512)
        assert accelerator.kernel_cycles(kernel, num_cells=16) < accelerator.kernel_cycles(
            kernel, num_cells=4
        )

    def test_elementwise_runs_on_simd(self, accelerator):
        kernel = elementwise_kernel("e", elements=100_000, ops_per_element=2)
        cycles = accelerator.kernel_cycles(kernel)
        assert cycles < 10_000 + accelerator.config.dispatch_overhead_cycles + 100_000

    def test_scale_out_choice_for_low_dimensional_bindings(self, accelerator):
        # MIMONet-style d=64 bindings benefit from the scale-out organisation.
        restricted = accelerator.circconv_mapping(64, 1000, allow_scale_out=False)
        flexible = accelerator.circconv_mapping(64, 1000, allow_scale_out=True)
        assert flexible.cycles <= restricted.cycles

    def test_invalid_cell_count_rejected(self, accelerator):
        kernel = gemm_kernel("g", m=16, k=16, n=16)
        with pytest.raises(HardwareConfigError):
            accelerator.kernel_cycles(kernel, num_cells=0)


class TestSimulation:
    def test_execute_reports_consistent_totals(self, accelerator, nvsa_workload):
        report = CogSysBackend(accelerator).execute(nvsa_workload, scheduler="sequential")
        assert report.total_seconds == pytest.approx(
            report.total_cycles / accelerator.config.frequency_hz
        )
        assert report.energy_joules == pytest.approx(
            report.total_seconds * accelerator.power_watts
        )
        assert set(report.kernel_seconds) == {k.name for k in nvsa_workload}
        assert 0 < report.array_occupancy <= 1

    def test_adaptive_never_slower_than_sequential(self, accelerator):
        workload = build_nvsa_workload(num_tasks=3)
        sequential = CogSysBackend(accelerator).execute(workload, scheduler="sequential")
        adaptive = CogSysBackend(accelerator).execute(workload, scheduler="adaptive")
        assert adaptive.total_seconds <= sequential.total_seconds

    def test_symbolic_share_is_small_on_cogsys(self, accelerator, nvsa_workload):
        report = CogSysBackend(accelerator).execute(nvsa_workload, scheduler="sequential")
        assert report.symbolic_fraction < 0.5

    def test_real_time_reasoning(self, accelerator, nvsa_workload):
        report = CogSysBackend(accelerator).execute(nvsa_workload, scheduler="adaptive")
        assert report.total_seconds < 0.3

    def test_mimonet_runs_and_is_neural_dominated(self, accelerator):
        report = CogSysBackend(accelerator).execute(build_mimonet_workload(), scheduler="adaptive")
        assert report.neural_seconds > report.symbolic_seconds

    def test_unknown_scheduler_rejected(self, accelerator, nvsa_workload):
        with pytest.raises(HardwareConfigError):
            CogSysBackend(accelerator).execute(nvsa_workload, scheduler="random")
