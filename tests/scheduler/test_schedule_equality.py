"""Equality gate: adSCH must place every kernel exactly as the plain loop.

``_reference_schedule`` is the straightforward event loop: every round
re-lists the whole ready set, sorts it by (neural first, larger FLOPs
first, graph order) and scans all of it, calling the cycle model once per
dispatch.  ``AdaptiveScheduler.schedule`` must return an equal
``ScheduleResult`` — same entries in the same order — for every workload,
batch size and accelerator variant the reports use.
"""

from __future__ import annotations

import heapq
import itertools

import pytest

from repro.errors import SchedulingError
from repro.hardware.accelerator import CogSysAccelerator
from repro.scheduler import (
    AdaptiveScheduler,
    OperationGraph,
    ScheduledKernel,
    ScheduleResult,
)
from repro.workloads import KernelKind, Stage, build_workload


def _uses_simd(kernel):
    return kernel.kind is KernelKind.ELEMENTWISE


def _reference_schedule(scheduler, workload):
    """adSCH written as a full rescan and re-sort of the ready set per round."""
    graph = OperationGraph(workload)
    entries = []
    free_cells = scheduler.num_cells
    simd_busy = False
    running = set()
    clock = 0
    events = []
    sequence = itertools.count()

    def try_dispatch():
        nonlocal free_cells, simd_busy
        ready = graph.ready_kernels(exclude=running)
        ready.sort(key=lambda k: (k.stage is not Stage.NEURAL, -k.flops))
        for kernel in ready:
            if _uses_simd(kernel):
                if simd_busy:
                    continue
                cells = 0
                simd_busy = True
            else:
                if free_cells == 0:
                    continue
                cells = min(
                    free_cells,
                    scheduler._preferred_cells(kernel, free_cells, len(ready)),
                )
                if cells == 0:
                    continue
                free_cells -= cells
            duration = int(scheduler.cycle_model(kernel, max(cells, 1)))
            end = clock + duration
            running.add(kernel.name)
            entries.append(
                ScheduledKernel(
                    name=kernel.name,
                    start_cycle=clock,
                    end_cycle=end,
                    cells_used=cells,
                    uses_simd=_uses_simd(kernel),
                    stage=kernel.stage,
                )
            )
            heapq.heappush(
                events, (end, next(sequence), kernel.name, cells, _uses_simd(kernel))
            )

    try_dispatch()
    if not events and not graph.all_complete:
        raise SchedulingError(f"workload '{workload.name}' has no dispatchable kernels")
    while events:
        end, _, name, cells, used_simd = heapq.heappop(events)
        clock = end
        graph.mark_complete(name)
        running.discard(name)
        if used_simd:
            simd_busy = False
        else:
            free_cells += cells
        while events and events[0][0] == clock:
            end, _, other, other_cells, other_simd = heapq.heappop(events)
            graph.mark_complete(other)
            running.discard(other)
            if other_simd:
                simd_busy = False
            else:
                free_cells += other_cells
        try_dispatch()

    if not graph.all_complete:
        raise SchedulingError(
            f"scheduler finished with incomplete kernels in '{workload.name}'"
        )
    return ScheduleResult(
        workload=workload.name,
        scheduler=scheduler.name,
        total_cycles=clock,
        entries=tuple(entries),
        num_cells=scheduler.num_cells,
    )


_ACCELERATORS = {
    "default": CogSysAccelerator(),
    "fused_array": CogSysAccelerator(scale_out=False),
    "no_nspe": CogSysAccelerator(reconfigurable_symbolic=False),
}


@pytest.mark.parametrize("accelerator", sorted(_ACCELERATORS))
@pytest.mark.parametrize("batch_size", [1, 2, 3, 7, 16, 32])
@pytest.mark.parametrize("workload", ["nvsa", "mimonet", "lvrf", "prae"])
def test_adaptive_schedule_matches_reference_loop(workload, batch_size, accelerator):
    model = _ACCELERATORS[accelerator]
    scheduler = AdaptiveScheduler(model.kernel_cycles, model.config.num_cells)
    graph = build_workload(workload, num_tasks=batch_size)
    assert scheduler.schedule(graph) == _reference_schedule(scheduler, graph)
