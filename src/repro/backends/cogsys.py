"""Backend adapter for the CogSys cycle-level accelerator model.

The end-to-end schedule-and-summarize logic lives here, so there is
exactly one code path producing CogSys timings.
"""

from __future__ import annotations

from repro.hardware.accelerator import CogSysAccelerator
from repro.backends.base import Backend, ExecutionReport
from repro.scheduler import AdaptiveScheduler, SequentialScheduler
from repro.workloads.base import KernelOp, Stage, Workload

__all__ = ["CogSysBackend"]


class CogSysBackend(Backend):
    """Unified-protocol wrapper around one :class:`CogSysAccelerator`."""

    family = "cogsys"
    schedulers = ("adaptive", "sequential")

    def __init__(
        self, accelerator: CogSysAccelerator | None = None, name: str | None = None
    ) -> None:
        self.accelerator = accelerator or CogSysAccelerator()
        self.name = name or self.accelerator.name
        self.power_watts = self.accelerator.power_watts

    @property
    def symbolic_friendly(self) -> bool:
        """Native symbolic support requires the reconfigurable nsPE mode."""
        return self.accelerator.reconfigurable_symbolic

    def kernel_time(self, kernel: KernelOp) -> float:
        """Seconds one kernel takes on the cycle model."""
        return self.accelerator.kernel_time(kernel)

    def execute(
        self, workload: Workload, scheduler: str | None = None
    ) -> ExecutionReport:
        """Schedule ``workload`` on the cycle model and summarize it."""
        resolved = self.resolve_scheduler(scheduler)
        accelerator = self.accelerator
        if resolved == "adaptive":
            engine = AdaptiveScheduler(
                accelerator.kernel_cycles, accelerator.config.num_cells
            )
        else:
            engine = SequentialScheduler(
                accelerator.kernel_cycles, accelerator.config.num_cells
            )
        schedule = engine.schedule(workload)
        config = accelerator.config
        total_seconds = config.cycles_to_seconds(schedule.total_cycles)
        neural_seconds = config.cycles_to_seconds(schedule.stage_cycles(Stage.NEURAL))
        symbolic_seconds = config.cycles_to_seconds(
            schedule.stage_cycles(Stage.SYMBOLIC)
        )
        kernel_seconds = {
            entry.name: config.cycles_to_seconds(entry.duration)
            for entry in schedule.entries
        }
        return ExecutionReport(
            backend=self.name,
            workload=workload.name,
            total_seconds=total_seconds,
            neural_seconds=neural_seconds,
            symbolic_seconds=symbolic_seconds,
            kernel_seconds=kernel_seconds,
            energy_joules=self.power_watts * total_seconds,
            scheduler=resolved,
            total_cycles=schedule.total_cycles,
            array_occupancy=schedule.array_occupancy,
            schedule=schedule,
        )
