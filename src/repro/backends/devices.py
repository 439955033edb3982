"""Backend adapters for the baseline device models.

The roofline/efficiency device models (:class:`~repro.hardware.baselines.
GenericDevice`) and the systolic ML-accelerator baselines
(:class:`~repro.hardware.baselines.SystolicAcceleratorDevice`) execute a
workload as a strict sequential sweep over its kernels; that loop lives
here.
"""

from __future__ import annotations

from repro.backends.base import Backend, ExecutionReport
from repro.hardware.baselines import DeviceModel, SystolicAcceleratorDevice
from repro.workloads.base import KernelOp, Stage, Workload

__all__ = ["DeviceBackend"]


class DeviceBackend(Backend):
    """Unified-protocol wrapper around one baseline :class:`DeviceModel`."""

    schedulers = ("sequential",)

    def __init__(self, model: DeviceModel) -> None:
        self.model = model
        self.name = model.name
        self.power_watts = model.power_watts
        self.family = (
            "ml_accelerator"
            if isinstance(model, SystolicAcceleratorDevice)
            else "device"
        )

    def kernel_time(self, kernel: KernelOp) -> float:
        """Seconds one kernel takes on the wrapped device model."""
        return self.model.kernel_time(kernel)

    def execute(
        self, workload: Workload, scheduler: str | None = None
    ) -> ExecutionReport:
        """Execute the workload's kernels sequentially (no overlap)."""
        resolved = self.resolve_scheduler(scheduler)
        kernel_seconds: dict[str, float] = {}
        neural = 0.0
        symbolic = 0.0
        for kernel in workload.topological_order():
            seconds = self.model.kernel_time(kernel)
            kernel_seconds[kernel.name] = seconds
            if kernel.stage is Stage.NEURAL:
                neural += seconds
            else:
                symbolic += seconds
        total = neural + symbolic
        return ExecutionReport(
            backend=self.name,
            workload=workload.name,
            total_seconds=total,
            neural_seconds=neural,
            symbolic_seconds=symbolic,
            kernel_seconds=kernel_seconds,
            energy_joules=total * self.power_watts,
            scheduler=resolved,
        )
