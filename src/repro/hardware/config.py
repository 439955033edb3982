"""CogSys accelerator configuration.

The default values reproduce the accelerator the paper taped out (Fig. 14):
16 reconfigurable cells of 32x32 nsPEs, a 512-PE SIMD unit, 4.5 MB of
double-buffered SRAM (256 KB SRAM A + 4 MB SRAM B + SRAM C), 0.8 GHz at
FP8/INT8 precision, and a 700 GB/s DRAM interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quantization import Precision
from repro.errors import HardwareConfigError

__all__ = ["CogSysConfig"]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class CogSysConfig:
    """Static configuration of a CogSys accelerator instance."""

    num_cells: int = 16
    cell_rows: int = 32
    cell_cols: int = 32
    simd_pes: int = 512
    frequency_hz: float = 0.8e9
    sram_a_bytes: int = 256 * KIB
    sram_b_bytes: int = 4 * MIB
    sram_c_bytes: int = 256 * KIB
    dram_bandwidth_bytes_per_s: float = 700e9
    precision: Precision = Precision.INT8
    #: per-kernel configuration/dispatch overhead on the accelerator (cycles)
    dispatch_overhead_cycles: int = 64

    def __post_init__(self) -> None:
        if min(self.num_cells, self.cell_rows, self.cell_cols, self.simd_pes) < 1:
            raise HardwareConfigError(
                "num_cells, cell_rows, cell_cols and simd_pes must be positive"
            )
        if self.frequency_hz <= 0 or self.dram_bandwidth_bytes_per_s <= 0:
            raise HardwareConfigError("frequency and DRAM bandwidth must be positive")
        if min(self.sram_a_bytes, self.sram_b_bytes, self.sram_c_bytes) < 0:
            raise HardwareConfigError("SRAM sizes must be non-negative")
        if self.dispatch_overhead_cycles < 0:
            raise HardwareConfigError("dispatch overhead must be non-negative")

    # -- derived quantities ------------------------------------------------------
    @property
    def pes_per_cell(self) -> int:
        """Number of nsPEs in one cell."""
        return self.cell_rows * self.cell_cols

    @property
    def total_pes(self) -> int:
        """Total nsPE count across all cells."""
        return self.num_cells * self.pes_per_cell

    @property
    def total_sram_bytes(self) -> int:
        """Total on-chip SRAM capacity."""
        return self.sram_a_bytes + self.sram_b_bytes + self.sram_c_bytes

    @property
    def peak_macs_per_cycle(self) -> int:
        """Peak multiply-accumulates per cycle (array plus SIMD)."""
        return self.total_pes + self.simd_pes

    @property
    def peak_flops(self) -> float:
        """Peak FLOP/s assuming one MAC (2 FLOPs) per PE per cycle."""
        return 2.0 * self.total_pes * self.frequency_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds."""
        if cycles < 0:
            raise HardwareConfigError(f"cycles must be non-negative, got {cycles}")
        return cycles / self.frequency_hz

    # -- scale-up view used by the symbolic mapping -------------------------------
    @property
    def scale_up_columns(self) -> int:
        """Number of independent 1-D nsPE arrays in the scale-up arrangement.

        The (N = 32, M = 512) organisation of Sec. V-E stacks the 16 cells
        into 32 columns of 512 PEs each.
        """
        return self.cell_cols

    @property
    def scale_up_column_depth(self) -> int:
        """PEs per 1-D array in the scale-up arrangement."""
        return self.cell_rows * self.num_cells
