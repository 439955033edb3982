"""The CogSys accelerator model.

This is the top-level performance model: it converts each kernel of a
workload into cycles using the appropriate sub-model (scale-up/scale-out
systolic GEMM for neural kernels, bubble-streaming dataflow with adaptive
ST mapping for circular convolutions, the SIMD unit for element-wise
kernels) and overlaps compute with DRAM transfers through the
double-buffered memory system.  End-to-end latency under the sequential or
the adaptive (adSCH) scheduler comes from
:class:`repro.backends.cogsys.CogSysBackend`, which drives this model.

Ablation switches reproduce the paper's Fig. 19 / Tab. V studies:

* ``reconfigurable_symbolic=False`` removes the nsPE circular-convolution
  mode, forcing the GEMV lowering a plain systolic array would use.
* ``scale_out=False`` fuses the 16 cells into one monolithic array.
"""

from __future__ import annotations

from repro.errors import HardwareConfigError
from repro.hardware.config import CogSysConfig
from repro.hardware.energy import AreaPowerModel
from repro.hardware.mapping import MappingDecision, choose_mapping
from repro.hardware.memory import MemorySystem
from repro.hardware.simd import SIMDUnit
from repro.hardware.systolic import SystolicArrayModel
from repro.workloads.base import KernelKind, KernelOp

__all__ = ["CogSysAccelerator"]


class CogSysAccelerator:
    """Cycle-level performance model of the CogSys accelerator."""

    name = "cogsys"

    def __init__(
        self,
        config: CogSysConfig | None = None,
        reconfigurable_symbolic: bool = True,
        scale_out: bool = True,
    ) -> None:
        self.config = config or CogSysConfig()
        self.reconfigurable_symbolic = reconfigurable_symbolic
        self.scale_out = scale_out
        self.area_power = AreaPowerModel(self.config.precision)
        self.simd = SIMDUnit(num_pes=self.config.simd_pes)
        self.memory = MemorySystem(
            sram_a_bytes=self.config.sram_a_bytes,
            sram_b_bytes=self.config.sram_b_bytes,
            sram_c_bytes=self.config.sram_c_bytes,
            dram_bandwidth_bytes_per_s=self.config.dram_bandwidth_bytes_per_s,
        )
        self.power_watts = self.area_power.accelerator_power_w(
            total_pes=self.config.total_pes, simd_pes=self.config.simd_pes
        )

    # -- component areas --------------------------------------------------------
    def area_mm2(self) -> float:
        """Compute area of the configured accelerator."""
        return self.area_power.accelerator_area_mm2(
            total_pes=self.config.total_pes, simd_pes=self.config.simd_pes
        )

    # -- per-kernel cycle models ---------------------------------------------------
    def _cell_model(self, num_cells: int) -> SystolicArrayModel:
        """Systolic model of the allocated cell block."""
        if self.scale_out:
            return SystolicArrayModel(self.config.cell_rows, self.config.cell_cols)
        return SystolicArrayModel(
            self.config.cell_rows * num_cells, self.config.cell_cols
        )

    def _gemm_cycles(self, kernel: KernelOp, num_cells: int) -> int:
        model = self._cell_model(num_cells)
        if self.scale_out:
            # Distribute weight tiles (and, when tiles are scarce, activation
            # rows) across the allocated cells.
            return model.multi_cell_gemm_cycles(num_cells, kernel.m, kernel.k, kernel.n)
        return model.gemm_cycles(kernel.m, kernel.k, kernel.n).cycles

    def _circconv_cycles(self, kernel: KernelOp, num_cells: int) -> int:
        if not self.reconfigurable_symbolic:
            # Without the nsPE circular-convolution mode the array behaves
            # like a conventional systolic accelerator: GEMV lowering with
            # cell-wise parallelism only.
            model = SystolicArrayModel(self.config.cell_rows, self.config.cell_cols)
            per_cell = -(-kernel.count // num_cells)
            return model.circconv_cycles_gemv(kernel.vector_dim, per_cell).cycles
        decision = self.circconv_mapping(kernel.vector_dim, kernel.count, num_cells)
        return decision.cycles

    def circconv_mapping(
        self, vector_dim: int, count: int, num_cells: int | None = None,
        allow_scale_out: bool | None = None,
    ) -> MappingDecision:
        """Best ST mapping of a circular-convolution batch onto the cells.

        Both the scale-up view (columns spanning all allocated cells, long
        1-D arrays) and the scale-out view (each cell contributing its own
        columns, short arrays) are evaluated and the faster one is kept.
        ``allow_scale_out=False`` pins the scale-up organisation (used when
        reproducing sweeps the paper ran on the fixed N=32, M=512 layout).
        """
        if num_cells is None:
            num_cells = self.config.num_cells
        if num_cells < 1:
            raise HardwareConfigError(f"num_cells must be positive, got {num_cells}")
        if allow_scale_out is None:
            allow_scale_out = self.scale_out
        organisations = [
            # Scale-up: cell columns are chained into long arrays.
            (self.config.cell_cols, self.config.cell_rows * num_cells),
        ]
        if allow_scale_out:
            # Scale-out: every cell exposes its own columns as short arrays.
            organisations.append(
                (self.config.cell_cols * num_cells, self.config.cell_rows)
            )
        best: MappingDecision | None = None
        for num_arrays, array_length in organisations:
            decision = choose_mapping(num_arrays, array_length, count, vector_dim)
            if best is None or decision.cycles < best.cycles:
                best = decision
        return best

    def kernel_cycles(self, kernel: KernelOp, num_cells: int | None = None) -> int:
        """Cycles to execute one kernel on ``num_cells`` cells (or the SIMD unit)."""
        if num_cells is None:
            num_cells = self.config.num_cells
        if num_cells < 1:
            raise HardwareConfigError(f"num_cells must be positive, got {num_cells}")
        num_cells = min(num_cells, self.config.num_cells)
        if kernel.kind is KernelKind.ELEMENTWISE:
            compute = self.simd.elementwise_cycles(
                elements=max(1, kernel.m), ops_per_element=max(1, kernel.flops // max(1, kernel.m))
            )
        elif kernel.kind is KernelKind.CIRCCONV:
            compute = self._circconv_cycles(kernel, num_cells)
        else:
            compute = self._gemm_cycles(kernel, num_cells)
        # Overlap DRAM traffic with compute (double-buffered SRAM); weights
        # resident in SRAM A are not re-fetched per kernel.
        transfer = self.memory.transfer(
            bytes_read=kernel.bytes_read,
            bytes_written=kernel.bytes_written,
            resident_bytes=min(kernel.bytes_read, self.config.sram_a_bytes),
        )
        transfer_cycles = transfer.transfer_seconds * self.config.frequency_hz
        return int(max(compute, transfer_cycles)) + self.config.dispatch_overhead_cycles

    def kernel_time(self, kernel: KernelOp, num_cells: int | None = None) -> float:
        """Wall-clock seconds for one kernel."""
        return self.config.cycles_to_seconds(self.kernel_cycles(kernel, num_cells))
