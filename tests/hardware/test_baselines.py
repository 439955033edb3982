"""Tests for the baseline device models."""

import pytest

from repro.backends import get_backend
from repro.errors import HardwareConfigError
from repro.hardware import DEVICE_SPECS, GenericDevice, SystolicAcceleratorDevice
from repro.hardware.baselines import ACCELERATOR_SPECS
from repro.workloads import build_nvsa_workload
from repro.workloads.builders import circconv_kernel, gemm_kernel


class TestRegisteredDevices:
    def test_all_registered_devices_instantiate(self):
        for name in list(DEVICE_SPECS) + list(ACCELERATOR_SPECS):
            device = get_backend(name).model
            assert device.name == name
            assert device.power_watts > 0

    def test_unknown_device_rejected(self):
        with pytest.raises(HardwareConfigError):
            get_backend("tpu_v5")


class TestGenericDevice:
    def test_neural_kernels_run_near_roofline(self):
        device = get_backend("rtx2080ti").model
        kernel = gemm_kernel("g", m=1024, k=1024, n=1024)
        seconds = device.kernel_time(kernel)
        ideal = kernel.flops / DEVICE_SPECS["rtx2080ti"].peak_flops
        assert ideal <= seconds < 20 * ideal

    def test_circconv_pays_quadratic_traffic(self):
        device = get_backend("rtx2080ti").model
        assert isinstance(device, GenericDevice)
        kernel = circconv_kernel("cc", vector_dim=1024, count=64, launches=4)
        traffic = device._device_traffic_bytes(kernel)
        assert traffic > 64 * 1024 * 1024  # far beyond the 3d streaming bytes

    def test_symbolic_kernels_pay_host_transfer_and_launches(self):
        device = get_backend("jetson_tx2").model
        fused = circconv_kernel("cc", vector_dim=512, count=64, launches=1)
        unfused = circconv_kernel("cc2", vector_dim=512, count=64, launches=64)
        assert device.kernel_time(unfused) > device.kernel_time(fused)

    def test_edge_devices_slower_than_desktop_gpu(self):
        workload = build_nvsa_workload()
        gpu = get_backend("rtx2080ti").execute(workload)
        tx2 = get_backend("jetson_tx2").execute(workload)
        nx = get_backend("xavier_nx").execute(workload)
        assert tx2.total_seconds > nx.total_seconds > gpu.total_seconds

    def test_symbolic_stage_dominates_gpu_runtime_for_nvsa(self):
        report = get_backend("rtx2080ti").execute(build_nvsa_workload())
        assert report.symbolic_fraction > 0.5
        assert report.total_seconds == pytest.approx(
            report.neural_seconds + report.symbolic_seconds
        )

    def test_energy_uses_device_power(self):
        report = get_backend("xeon").execute(build_nvsa_workload())
        assert report.energy_joules == pytest.approx(report.total_seconds * 145.0)


class TestSystolicAcceleratorDevice:
    def test_monolithic_array_is_worst_for_symbolic_kernels(self):
        kernel = circconv_kernel("cc", vector_dim=1024, count=128)
        tpu = get_backend("tpu_like").model.kernel_time(kernel)
        mtia = get_backend("mtia_like").model.kernel_time(kernel)
        assert tpu > mtia

    def test_neural_gemm_times_are_comparable_across_accelerators(self):
        kernel = gemm_kernel("g", m=4096, k=512, n=512)
        times = [
            get_backend(name).model.kernel_time(kernel)
            for name in ("tpu_like", "mtia_like", "gemmini_like")
        ]
        assert max(times) < 6 * min(times)

    def test_report_breakdown_by_stage(self):
        report = get_backend("tpu_like").execute(build_nvsa_workload())
        assert report.neural_seconds > 0 and report.symbolic_seconds > 0
        assert set(report.kernel_seconds) == {
            kernel.name for kernel in build_nvsa_workload()
        }

    def test_spec_registry_matches_paper_table(self):
        assert ACCELERATOR_SPECS["tpu_like"].cell_rows == 128
        assert ACCELERATOR_SPECS["mtia_like"].num_cells == 16
        assert ACCELERATOR_SPECS["gemmini_like"].num_cells == 64
        assert isinstance(get_backend("gemmini_like").model, SystolicAcceleratorDevice)
