"""Memoized per-``(workload, batch)`` execution reports for one backend.

Hoisted out of the serving fleet so any layer can reuse it: the expensive
part of answering "how long does a batch of ``b`` requests take on backend
``X``" is building the kernel graph and scheduling it once — afterwards
every lookup is a dictionary hit, which is what keeps full load sweeps and
serving scenario matrices fast.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping

from repro.backends.base import Backend, ExecutionReport
from repro.backends.registry import CustomSpec, get_backend
from repro.errors import BackendError
from repro.workloads.registry import build_workload

__all__ = ["ExecutionCache"]


class ExecutionCache:
    """Memoized ``(workload name, batch size) -> ExecutionReport`` oracle."""

    def __init__(
        self,
        backend: Backend | CustomSpec | str = "cogsys",
        scheduler: str | None = None,
        workload_params: Mapping[str, Mapping[str, object]] | None = None,
    ) -> None:
        self.backend = (
            backend if isinstance(backend, Backend) else get_backend(backend)
        )
        # Resolve (and validate) the scheduler up front so an unsupported
        # override fails at construction, not mid-simulation.
        self.scheduler = self.backend.resolve_scheduler(scheduler)
        self.workload_params = {
            name: dict(params) for name, params in (workload_params or {}).items()
        }
        self._reports: dict[tuple[str, int], ExecutionReport] = {}

    @property
    def backend_name(self) -> str:
        """Name of the backend this cache answers for."""
        return self.backend.name

    def report(self, workload: str, batch_size: int) -> ExecutionReport:
        """The backend report for a batch, computed once and memoized."""
        try:
            valid = operator.index(batch_size) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise BackendError(
                f"batch_size must be a positive integer, got {batch_size!r}"
            )
        key = (workload, batch_size)
        if key not in self._reports:
            graph = build_workload(
                workload,
                num_tasks=batch_size,
                **self.workload_params.get(workload, {}),
            )
            self._reports[key] = self.backend.execute(graph, scheduler=self.scheduler)
        return self._reports[key]

    def service_seconds(self, workload: str, batch_size: int) -> float:
        """Chip-occupancy seconds for one batch."""
        return self.report(workload, batch_size).total_seconds

    def energy_joules(self, workload: str, batch_size: int) -> float:
        """Energy one batch costs on the backend."""
        return self.report(workload, batch_size).energy_joules

    @property
    def cached_reports(self) -> int:
        """Number of distinct ``(workload, batch)`` executions performed."""
        return len(self._reports)

    @property
    def report_keys(self) -> frozenset[tuple[str, int]]:
        """The ``(workload, batch)`` keys of the executions performed."""
        return frozenset(self._reports)
