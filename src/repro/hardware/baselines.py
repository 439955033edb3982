"""Baseline device models: CPUs, GPUs, edge SoCs and ML accelerators.

Two families of baseline are modelled, matching the paper's comparisons:

* :class:`GenericDevice` — roofline-style models of general-purpose
  processors and GPUs (RTX 2080Ti, V100, A100, Xeon, Jetson TX2, Xavier NX,
  Coral TPU).  Per-kernel-kind compute and bandwidth efficiencies are
  calibrated from the paper's Tab. II measurements (symbolic kernels achieve
  only a few percent of peak compute but high DRAM utilisation), and every
  sub-operation pays a host launch overhead, which is what makes the many
  small sequential symbolic kernels so expensive on these devices.
* :class:`SystolicAcceleratorDevice` — TPU-like, MTIA-like and Gemmini-like
  systolic accelerators.  Neural kernels map efficiently; circular
  convolution must be lowered to a GEMV against the materialised circulant
  matrix (O(d^2) footprint, no column-wise parallelism), which reproduces
  the Fig. 17/18 gaps against CogSys.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.hardware.systolic import SystolicArrayModel
from repro.workloads.base import KernelKind, KernelOp

__all__ = [
    "DeviceModel",
    "DeviceSpec",
    "AcceleratorSpec",
    "GenericDevice",
    "SystolicAcceleratorDevice",
    "DEVICE_SPECS",
    "ACCELERATOR_SPECS",
]

ELEMENT_BYTES = 4


class DeviceModel(abc.ABC):
    """Common interface of every device model."""

    name: str
    power_watts: float

    @abc.abstractmethod
    def kernel_time(self, kernel: KernelOp) -> float:
        """Execution time of one kernel in seconds."""


@dataclass(frozen=True)
class DeviceSpec:
    """Published characteristics of a general-purpose device."""

    name: str
    peak_flops: float
    memory_bandwidth_bytes_per_s: float
    power_watts: float
    #: host-to-device transfer bandwidth (PCIe or SoC fabric)
    host_bandwidth_bytes_per_s: float
    #: per-sub-operation launch/dispatch overhead in seconds
    launch_overhead_s: float
    #: compute efficiency per kernel kind (fraction of peak FLOPs)
    compute_efficiency: dict[KernelKind, float]
    #: achievable fraction of peak DRAM bandwidth per kernel kind
    bandwidth_efficiency: dict[KernelKind, float]


#: Compute efficiencies calibrated from the paper's Tab. II kernel profile:
#: sgemm-style neural kernels sustain ~90-95 % of achievable throughput,
#: symbolic vectorised/element-wise kernels only ~2-6 %.
_GPU_COMPUTE_EFF = {
    KernelKind.GEMM: 0.55,
    KernelKind.CONV: 0.50,
    KernelKind.MATVEC: 0.06,
    KernelKind.CIRCCONV: 0.05,
    KernelKind.ELEMENTWISE: 0.03,
}
_GPU_BANDWIDTH_EFF = {
    KernelKind.GEMM: 0.60,
    KernelKind.CONV: 0.60,
    KernelKind.MATVEC: 0.80,
    KernelKind.CIRCCONV: 0.85,
    KernelKind.ELEMENTWISE: 0.78,
}
_CPU_COMPUTE_EFF = {
    KernelKind.GEMM: 0.70,
    KernelKind.CONV: 0.60,
    KernelKind.MATVEC: 0.15,
    KernelKind.CIRCCONV: 0.08,
    KernelKind.ELEMENTWISE: 0.05,
}
_CPU_BANDWIDTH_EFF = {
    KernelKind.GEMM: 0.70,
    KernelKind.CONV: 0.70,
    KernelKind.MATVEC: 0.80,
    KernelKind.CIRCCONV: 0.80,
    KernelKind.ELEMENTWISE: 0.70,
}

#: Device specifications (peak FP32 throughput, memory bandwidth, TDP).
DEVICE_SPECS: dict[str, DeviceSpec] = {
    "rtx2080ti": DeviceSpec(
        name="rtx2080ti",
        peak_flops=13.4e12,
        memory_bandwidth_bytes_per_s=616e9,
        power_watts=250.0,
        host_bandwidth_bytes_per_s=16e9,
        launch_overhead_s=6e-6,
        compute_efficiency=_GPU_COMPUTE_EFF,
        bandwidth_efficiency=_GPU_BANDWIDTH_EFF,
    ),
    "v100": DeviceSpec(
        name="v100",
        peak_flops=15.7e12,
        memory_bandwidth_bytes_per_s=900e9,
        power_watts=300.0,
        host_bandwidth_bytes_per_s=16e9,
        launch_overhead_s=6e-6,
        compute_efficiency=_GPU_COMPUTE_EFF,
        bandwidth_efficiency=_GPU_BANDWIDTH_EFF,
    ),
    "a100": DeviceSpec(
        name="a100",
        peak_flops=19.5e12,
        memory_bandwidth_bytes_per_s=1555e9,
        power_watts=400.0,
        host_bandwidth_bytes_per_s=32e9,
        launch_overhead_s=4e-6,
        compute_efficiency=_GPU_COMPUTE_EFF,
        bandwidth_efficiency=_GPU_BANDWIDTH_EFF,
    ),
    "xeon": DeviceSpec(
        name="xeon",
        peak_flops=1.8e12,
        memory_bandwidth_bytes_per_s=120e9,
        power_watts=145.0,
        host_bandwidth_bytes_per_s=60e9,
        launch_overhead_s=2e-6,
        compute_efficiency=_CPU_COMPUTE_EFF,
        bandwidth_efficiency=_CPU_BANDWIDTH_EFF,
    ),
    "jetson_tx2": DeviceSpec(
        name="jetson_tx2",
        peak_flops=0.67e12,
        memory_bandwidth_bytes_per_s=59.7e9,
        power_watts=15.0,
        host_bandwidth_bytes_per_s=8e9,
        launch_overhead_s=25e-6,
        compute_efficiency=_GPU_COMPUTE_EFF,
        bandwidth_efficiency=_GPU_BANDWIDTH_EFF,
    ),
    "xavier_nx": DeviceSpec(
        name="xavier_nx",
        peak_flops=1.1e12,
        memory_bandwidth_bytes_per_s=59.7e9,
        power_watts=20.0,
        host_bandwidth_bytes_per_s=8e9,
        launch_overhead_s=20e-6,
        compute_efficiency=_GPU_COMPUTE_EFF,
        bandwidth_efficiency=_GPU_BANDWIDTH_EFF,
    ),
    "coral_tpu": DeviceSpec(
        name="coral_tpu",
        peak_flops=4e12,
        memory_bandwidth_bytes_per_s=25.6e9,
        power_watts=4.0,
        host_bandwidth_bytes_per_s=0.5e9,
        launch_overhead_s=80e-6,
        compute_efficiency={
            KernelKind.GEMM: 0.60,
            KernelKind.CONV: 0.60,
            KernelKind.MATVEC: 0.05,
            KernelKind.CIRCCONV: 0.02,
            KernelKind.ELEMENTWISE: 0.01,
        },
        bandwidth_efficiency=_GPU_BANDWIDTH_EFF,
    ),
}


class GenericDevice(DeviceModel):
    """Roofline + efficiency + launch-overhead model of a CPU/GPU/edge SoC."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.power_watts = spec.power_watts

    def _device_traffic_bytes(self, kernel: KernelOp) -> int:
        """Traffic the kernel actually generates on this device.

        Circular convolution on CPU/GPU fetches circularly shifted operand
        copies (or a materialised circulant), so its traffic is O(d^2) per
        operation rather than the O(d) streaming minimum.
        """
        if kernel.kind is KernelKind.CIRCCONV:
            per_op = kernel.vector_dim * kernel.vector_dim + 2 * kernel.vector_dim
            return per_op * kernel.count * ELEMENT_BYTES
        return kernel.total_bytes

    def kernel_time(self, kernel: KernelOp) -> float:
        compute_eff = self.spec.compute_efficiency.get(kernel.kind, 0.1)
        bandwidth_eff = self.spec.bandwidth_efficiency.get(kernel.kind, 0.5)
        compute_time = kernel.flops / (self.spec.peak_flops * compute_eff)
        memory_time = self._device_traffic_bytes(kernel) / (
            self.spec.memory_bandwidth_bytes_per_s * bandwidth_eff
        )
        launch_time = self.spec.launch_overhead_s * kernel.device_launches
        host_time = 0.0
        if kernel.is_symbolic:
            # Symbolic operands bounce between host and device (Sec. III-D:
            # symbolic data transfer accounts for a large share of latency).
            host_time = kernel.total_bytes / self.spec.host_bandwidth_bytes_per_s
        return max(compute_time, memory_time) + launch_time + host_time


@dataclass(frozen=True)
class AcceleratorSpec:
    """Configuration of a systolic ML accelerator baseline."""

    name: str
    num_cells: int
    cell_rows: int
    cell_cols: int
    frequency_hz: float
    power_watts: float
    sram_bytes: int
    dram_bandwidth_bytes_per_s: float = 100e9
    #: throughput of the scalar/vector unit handling element-wise ops
    vector_lanes: int = 64


#: Tab. VI accelerator baselines, all with 4.5 MB SRAM and matched PE counts.
ACCELERATOR_SPECS: dict[str, AcceleratorSpec] = {
    "tpu_like": AcceleratorSpec(
        name="tpu_like",
        num_cells=1,
        cell_rows=128,
        cell_cols=128,
        frequency_hz=0.8e9,
        power_watts=2.0,
        sram_bytes=4_500_000,
    ),
    "mtia_like": AcceleratorSpec(
        name="mtia_like",
        num_cells=16,
        cell_rows=32,
        cell_cols=32,
        frequency_hz=0.8e9,
        power_watts=1.8,
        sram_bytes=4_500_000,
    ),
    "gemmini_like": AcceleratorSpec(
        name="gemmini_like",
        num_cells=64,
        cell_rows=16,
        cell_cols=16,
        frequency_hz=0.8e9,
        power_watts=1.8,
        sram_bytes=4_500_000,
    ),
}


class SystolicAcceleratorDevice(DeviceModel):
    """TPU/MTIA/Gemmini-like accelerator without reconfigurable symbolic support."""

    def __init__(self, spec: AcceleratorSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.power_watts = spec.power_watts
        self._cell = SystolicArrayModel(spec.cell_rows, spec.cell_cols)

    def _gemm_seconds(self, m: int, k: int, n: int) -> float:
        """Scale-out GEMM: weight tiles and activation rows spread over cells."""
        cycles = self._cell.multi_cell_gemm_cycles(self.spec.num_cells, m, k, n)
        return cycles / self.spec.frequency_hz

    def _circconv_seconds(self, kernel: KernelOp) -> float:
        """GEMV-lowered circular convolutions, distributed across cells.

        Cell-wise parallelism is available (different convolutions on
        different cells) but column-wise parallelism within a cell is not,
        so each cell runs its share strictly sequentially.  The circulant
        matrix is generated on chip from the d-element operand, so DRAM only
        supplies the operands themselves; the dominant cost is pushing the
        O(d^2) shifted copies through the array's weight-load ports.
        """
        per_cell = -(-kernel.count // self.spec.num_cells)
        cycles = self._cell.circconv_cycles_gemv(kernel.vector_dim, per_cell).cycles
        compute_seconds = cycles / self.spec.frequency_hz
        memory_seconds = kernel.total_bytes / self.spec.dram_bandwidth_bytes_per_s
        return max(compute_seconds, memory_seconds)

    def kernel_time(self, kernel: KernelOp) -> float:
        if kernel.kind in (KernelKind.GEMM, KernelKind.CONV):
            return self._gemm_seconds(kernel.m, kernel.k, kernel.n)
        if kernel.kind is KernelKind.MATVEC:
            return self._gemm_seconds(kernel.m, kernel.k, kernel.n)
        if kernel.kind is KernelKind.CIRCCONV:
            return self._circconv_seconds(kernel)
        # Element-wise operations run on a narrow vector unit.
        elements = max(1, kernel.flops)
        cycles = -(-elements // self.spec.vector_lanes)
        return cycles / self.spec.frequency_hz
