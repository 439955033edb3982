"""The execution protocol every hardware target implements.

A *backend* is one simulated execution resource — the CogSys accelerator,
a GPU/CPU/edge device, or a TPU-like systolic baseline — behind a single
interface:

* :meth:`Backend.kernel_time` — seconds for one kernel,
* :meth:`Backend.execute` — an end-to-end :class:`ExecutionReport` for a
  workload graph under an optional scheduler,
* :meth:`Backend.batched` — vectorized reports over batch-size variants of
  a registered workload (the serving layer's service-time oracle).

:class:`ExecutionReport` is the one report shape for every backend: the
shared fields (total/neural/symbolic seconds, per-kernel seconds, energy)
are always populated, while cycle-model-only fields (``total_cycles``,
``array_occupancy``, ``schedule``) stay ``None`` for roofline-style device
backends.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import BackendError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.scheduler import ScheduleResult
    from repro.workloads.base import KernelOp, Workload

__all__ = ["ExecutionReport", "Backend"]


@dataclass(frozen=True)
class ExecutionReport:
    """End-to-end execution summary of one workload on one backend."""

    backend: str
    workload: str
    total_seconds: float
    neural_seconds: float
    symbolic_seconds: float
    kernel_seconds: dict[str, float] = field(default_factory=dict)
    energy_joules: float = 0.0
    scheduler: str | None = None
    #: cycle-model backends only
    total_cycles: int | None = None
    array_occupancy: float | None = None
    schedule: "ScheduleResult | None" = None

    @property
    def symbolic_fraction(self) -> float:
        """Fraction of (stage-summed) runtime spent in symbolic kernels.

        The fraction is computed over ``neural_seconds + symbolic_seconds``:
        on backends whose scheduler overlaps stages the end-to-end total can
        be smaller than the stage sum, and on sequential device models the
        two denominators coincide exactly.
        """
        stage_total = self.neural_seconds + self.symbolic_seconds
        return self.symbolic_seconds / stage_total if stage_total else 0.0


class Backend(abc.ABC):
    """One simulated execution resource behind the unified protocol."""

    name: str
    power_watts: float
    #: presentation family used by the registry/CLI ("cogsys",
    #: "ml_accelerator" or "device")
    family: str = "device"
    #: whether the backend has native (reconfigurable) symbolic support —
    #: the signal heterogeneous-fleet affinity routing keys on
    symbolic_friendly: bool = False
    #: scheduler names :meth:`execute` accepts; the first is the default
    schedulers: tuple[str, ...] = ("sequential",)

    @property
    def default_scheduler(self) -> str:
        """Scheduler used when :meth:`execute` is called without one."""
        return self.schedulers[0]

    def supports_scheduler(self, scheduler: str) -> bool:
        """Whether :meth:`execute` accepts ``scheduler``."""
        return scheduler in self.schedulers

    def resolve_scheduler(self, scheduler: str | None) -> str:
        """``scheduler`` validated against this backend, or its default."""
        resolved = scheduler or self.default_scheduler
        if not self.supports_scheduler(resolved):
            raise BackendError(
                f"backend '{self.name}' has no scheduler '{resolved}'; "
                f"known: {list(self.schedulers)}"
            )
        return resolved

    @abc.abstractmethod
    def kernel_time(self, kernel: "KernelOp") -> float:
        """Execution time of one kernel in seconds."""

    @abc.abstractmethod
    def execute(
        self, workload: "Workload", scheduler: str | None = None
    ) -> ExecutionReport:
        """Run ``workload`` end to end and return its execution report."""

    def batched(
        self,
        workload: str,
        batch_sizes: Sequence[int],
        scheduler: str | None = None,
        **workload_params: object,
    ) -> tuple[ExecutionReport, ...]:
        """Reports for the ``num_tasks=b`` variants of a registered workload.

        ``workload`` is a workload *name* (resolved through
        :mod:`repro.workloads.registry`) because each batch size needs its
        own kernel graph; extra keyword arguments reach the workload
        builder unchanged.
        """
        from repro.workloads.registry import build_workload

        sizes = tuple(batch_sizes)
        for size in sizes:
            if size < 1:
                raise BackendError(f"batch sizes must be positive, got {size}")
        return tuple(
            self.execute(
                build_workload(workload, num_tasks=size, **workload_params),
                scheduler=scheduler,
            )
            for size in sizes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
