"""Sequential and adaptive (adSCH) schedulers.

Both schedulers consume a *cycle model*: a callable
``cycles(kernel, num_cells) -> int`` supplied by the accelerator model (or an
ablated variant of it).  Element-wise kernels are assumed to run on the SIMD
unit, which is a separate resource, so they can overlap array kernels.

A cycle model must depend only on the kernel's kind, stage and cost fields
(FLOPs, bytes, shape, counts), not on its name, task or dependencies: a
batch of tasks repeats the same few kernel shapes, so each ``schedule``
call memoizes the model on those fields and the cell count.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.scheduler.graph import OperationGraph
from repro.workloads.base import KernelKind, KernelOp, Stage, Workload

__all__ = ["ScheduledKernel", "ScheduleResult", "SequentialScheduler", "AdaptiveScheduler"]

#: type of the cycle-model callable
CycleModel = Callable[[KernelOp, int], int]


@dataclass(frozen=True)
class ScheduledKernel:
    """Placement of one kernel in the schedule."""

    name: str
    start_cycle: int
    end_cycle: int
    cells_used: int
    uses_simd: bool
    stage: Stage

    @property
    def duration(self) -> int:
        """Kernel duration in cycles."""
        return self.end_cycle - self.start_cycle


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one workload."""

    workload: str
    scheduler: str
    total_cycles: int
    entries: tuple[ScheduledKernel, ...]
    num_cells: int

    @property
    def array_occupancy(self) -> float:
        """Fraction of cell-cycles occupied by array kernels."""
        if self.total_cycles == 0:
            return 0.0
        busy = sum(
            entry.duration * entry.cells_used
            for entry in self.entries
            if not entry.uses_simd
        )
        return min(1.0, busy / (self.total_cycles * self.num_cells))

    def stage_cycles(self, stage: Stage) -> int:
        """Sum of kernel durations belonging to one stage."""
        return sum(entry.duration for entry in self.entries if entry.stage is stage)

    def entry(self, name: str) -> ScheduledKernel:
        """Look up the schedule entry of one kernel."""
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise SchedulingError(f"kernel '{name}' is not in the schedule")


def _uses_simd(kernel: KernelOp) -> bool:
    return kernel.kind is KernelKind.ELEMENTWISE


def _memoized(cycle_model: CycleModel) -> CycleModel:
    """``cycle_model`` answering repeated kernel shapes from a local table."""
    cycles: dict[tuple, int] = {}

    def lookup(kernel: KernelOp, num_cells: int) -> int:
        key = (
            kernel.kind, kernel.stage, kernel.flops, kernel.bytes_read,
            kernel.bytes_written, kernel.m, kernel.k, kernel.n,
            kernel.vector_dim, kernel.count, kernel.launches, num_cells,
        )
        if key not in cycles:
            cycles[key] = int(cycle_model(kernel, num_cells))
        return cycles[key]

    return lookup


class SequentialScheduler:
    """Run every kernel on the full array, one after another.

    This reproduces the behaviour of conventional ML accelerators: no
    neural/symbolic interleaving, no cell partitioning, and therefore low
    utilisation whenever a kernel cannot fill the whole array.
    """

    name = "sequential"

    def __init__(self, cycle_model: CycleModel, num_cells: int) -> None:
        if num_cells < 1:
            raise SchedulingError(f"num_cells must be positive, got {num_cells}")
        self.cycle_model = cycle_model
        self.num_cells = num_cells

    def schedule(self, workload: Workload) -> ScheduleResult:
        """Produce the sequential schedule."""
        entries = []
        clock = 0
        cycle_model = _memoized(self.cycle_model)
        for kernel in workload.topological_order():
            cells = self.num_cells
            duration = cycle_model(kernel, cells)
            entries.append(
                ScheduledKernel(
                    name=kernel.name,
                    start_cycle=clock,
                    end_cycle=clock + duration,
                    cells_used=0 if _uses_simd(kernel) else cells,
                    uses_simd=_uses_simd(kernel),
                    stage=kernel.stage,
                )
            )
            clock += duration
        return ScheduleResult(
            workload=workload.name,
            scheduler=self.name,
            total_cycles=clock,
            entries=tuple(entries),
            num_cells=self.num_cells,
        )


class AdaptiveScheduler:
    """Workload-aware greedy scheduler (adSCH).

    The scheduler is event driven: whenever cells (or the SIMD unit) free
    up, every kernel whose dependencies are satisfied competes for the free
    resources.  Neural kernels are prioritised for large cell blocks and
    symbolic kernels accept small ones, so symbolic work of one reasoning
    task fills the cells left idle by the neural work of another — the
    interleaving illustrated in Fig. 13 of the paper.
    """

    name = "adaptive"

    def __init__(
        self,
        cycle_model: CycleModel,
        num_cells: int,
        min_symbolic_cells: int = 1,
        min_neural_cells: int = 4,
    ) -> None:
        if num_cells < 1:
            raise SchedulingError(f"num_cells must be positive, got {num_cells}")
        if min_symbolic_cells < 1 or min_neural_cells < 1:
            raise SchedulingError("minimum cell allocations must be positive")
        self.cycle_model = cycle_model
        self.num_cells = num_cells
        self.min_symbolic_cells = min(min_symbolic_cells, num_cells)
        self.min_neural_cells = min(min_neural_cells, num_cells)

    # -- allocation policy --------------------------------------------------------
    def _preferred_cells(self, kernel: KernelOp, free_cells: int, num_ready: int) -> int:
        """How many cells to hand to a kernel given the current contention."""
        if _uses_simd(kernel):
            return 0
        minimum = (
            self.min_neural_cells
            if kernel.stage is Stage.NEURAL
            else self.min_symbolic_cells
        )
        if num_ready <= 1:
            return max(minimum, free_cells)
        fair_share = max(1, free_cells // num_ready)
        if kernel.stage is Stage.NEURAL:
            # Neural kernels take the larger block (Sec. VI-B step 3).
            return max(minimum, min(free_cells, fair_share * 2))
        return max(min(minimum, free_cells), min(free_cells, fair_share))

    # -- main loop -------------------------------------------------------------------
    def schedule(self, workload: Workload) -> ScheduleResult:
        """Produce the adaptive schedule.

        Undispatched ready kernels wait in a list kept sorted by (neural
        first, larger FLOPs first, workload order); kernels that a
        completion unblocks are inserted into it, so no round re-sorts the
        ready set.  A round scans the list in order and stops early once no
        cells are free and the SIMD unit is busy.
        """
        graph = OperationGraph(workload)
        position = {kernel.name: index for index, kernel in enumerate(workload.kernels)}
        cycle_model = _memoized(self.cycle_model)
        entries: list[ScheduledKernel] = []
        free_cells = self.num_cells
        simd_busy = False
        clock = 0
        # Event queue of (end_cycle, sequence, kernel_name, cells, uses_simd).
        events: list[tuple[int, int, str, int, bool]] = []
        sequence = itertools.count()

        def candidate(kernel: KernelOp) -> tuple[bool, int, int, KernelOp]:
            # ``position`` is unique, so the kernel itself is never compared.
            return (kernel.stage is not Stage.NEURAL, -kernel.flops, position[kernel.name], kernel)

        waiting = sorted(candidate(kernel) for kernel in graph.ready_kernels())

        def try_dispatch() -> None:
            nonlocal free_cells, simd_busy, waiting
            num_ready = len(waiting)
            kept = []
            for index, entry in enumerate(waiting):
                if free_cells == 0 and simd_busy:
                    kept.extend(waiting[index:])
                    break
                kernel = entry[3]
                uses_simd = _uses_simd(kernel)
                if uses_simd:
                    if simd_busy:
                        kept.append(entry)
                        continue
                    cells = 0
                    simd_busy = True
                else:
                    if free_cells == 0:
                        kept.append(entry)
                        continue
                    cells = min(
                        free_cells,
                        self._preferred_cells(kernel, free_cells, num_ready),
                    )
                    if cells == 0:
                        kept.append(entry)
                        continue
                    free_cells -= cells
                end = clock + cycle_model(kernel, max(cells, 1))
                entries.append(
                    ScheduledKernel(
                        name=kernel.name,
                        start_cycle=clock,
                        end_cycle=end,
                        cells_used=cells,
                        uses_simd=uses_simd,
                        stage=kernel.stage,
                    )
                )
                heapq.heappush(events, (end, next(sequence), kernel.name, cells, uses_simd))
            waiting = kept

        try_dispatch()
        if not events and not graph.all_complete:
            raise SchedulingError(
                f"workload '{workload.name}' has no dispatchable kernels"
            )
        while events:
            clock = events[0][0]
            # Drain all events completing at the same cycle before dispatching.
            while events and events[0][0] == clock:
                _, _, name, cells, used_simd = heapq.heappop(events)
                for kernel in graph.mark_complete(name):
                    bisect.insort(waiting, candidate(kernel))
                if used_simd:
                    simd_busy = False
                else:
                    free_cells += cells
            try_dispatch()

        if not graph.all_complete:
            raise SchedulingError(
                f"scheduler finished with incomplete kernels in '{workload.name}'"
            )
        return ScheduleResult(
            workload=workload.name,
            scheduler=self.name,
            total_cycles=clock,
            entries=tuple(entries),
            num_cells=self.num_cells,
        )
