"""Tests for the sequential and adaptive (adSCH) schedulers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SchedulingError
from repro.scheduler import AdaptiveScheduler, SequentialScheduler
from repro.workloads import Stage, Workload, build_nvsa_workload
from repro.workloads.builders import circconv_kernel, elementwise_kernel, gemm_kernel


def _unit_cycle_model(kernel, num_cells):
    """A fixed-duration cycle model (independent of cells) for scheduler tests.

    Keeping the duration independent of the allocation isolates the effect of
    overlap: any makespan reduction must come from running independent
    kernels concurrently, not from giving one kernel more cells.
    """
    return max(1, kernel.flops // 1000)


def _two_task_workload():
    kernels = []
    for task in range(2):
        neural = gemm_kernel(f"t{task}/neural", m=64, k=64, n=64, task_id=task)
        symbolic = circconv_kernel(
            f"t{task}/symbolic", vector_dim=64, count=8, task_id=task,
            depends_on=(neural.name,),
        )
        post = elementwise_kernel(
            f"t{task}/post", elements=1000, task_id=task, depends_on=(symbolic.name,)
        )
        kernels.extend([neural, symbolic, post])
    return Workload(name="two_tasks", kernels=kernels)


class TestSequentialScheduler:
    def test_total_is_sum_of_kernel_durations(self):
        workload = _two_task_workload()
        scheduler = SequentialScheduler(_unit_cycle_model, num_cells=16)
        result = scheduler.schedule(workload)
        assert result.total_cycles == sum(entry.duration for entry in result.entries)
        assert len(result.entries) == len(workload)

    def test_entries_do_not_overlap(self):
        result = SequentialScheduler(_unit_cycle_model, 16).schedule(_two_task_workload())
        ordered = sorted(result.entries, key=lambda e: e.start_cycle)
        for previous, current in zip(ordered[:-1], ordered[1:]):
            assert current.start_cycle >= previous.end_cycle

    def test_invalid_cell_count_rejected(self):
        with pytest.raises(SchedulingError):
            SequentialScheduler(_unit_cycle_model, 0)


class TestAdaptiveScheduler:
    def test_all_kernels_scheduled_and_dependencies_respected(self):
        workload = _two_task_workload()
        result = AdaptiveScheduler(_unit_cycle_model, num_cells=16).schedule(workload)
        assert len(result.entries) == len(workload)
        for kernel in workload:
            entry = result.entry(kernel.name)
            for dependency in kernel.depends_on:
                assert result.entry(dependency).end_cycle <= entry.start_cycle

    def test_independent_tasks_overlap(self):
        workload = _two_task_workload()
        sequential = SequentialScheduler(_unit_cycle_model, 16).schedule(workload)
        adaptive = AdaptiveScheduler(_unit_cycle_model, 16).schedule(workload)
        assert adaptive.total_cycles < sequential.total_cycles

    def test_cell_capacity_never_exceeded(self):
        workload = build_nvsa_workload(num_tasks=2)
        from repro.hardware import CogSysAccelerator

        accelerator = CogSysAccelerator()
        result = AdaptiveScheduler(accelerator.kernel_cycles, 16).schedule(workload)
        events = sorted({entry.start_cycle for entry in result.entries})
        for time in events:
            in_flight = sum(
                entry.cells_used
                for entry in result.entries
                if entry.start_cycle <= time < entry.end_cycle and not entry.uses_simd
            )
            assert in_flight <= 16

    def test_simd_kernels_do_not_use_cells(self):
        result = AdaptiveScheduler(_unit_cycle_model, 16).schedule(_two_task_workload())
        for entry in result.entries:
            if entry.uses_simd:
                assert entry.cells_used == 0

    def test_occupancy_and_stage_cycles(self):
        result = AdaptiveScheduler(_unit_cycle_model, 16).schedule(_two_task_workload())
        assert 0 < result.array_occupancy <= 1
        assert result.stage_cycles(Stage.NEURAL) > 0
        assert result.stage_cycles(Stage.SYMBOLIC) > 0

    def test_unknown_entry_lookup_rejected(self):
        result = AdaptiveScheduler(_unit_cycle_model, 16).schedule(_two_task_workload())
        with pytest.raises(SchedulingError):
            result.entry("ghost")

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SchedulingError):
            AdaptiveScheduler(_unit_cycle_model, num_cells=0)
        with pytest.raises(SchedulingError):
            AdaptiveScheduler(_unit_cycle_model, num_cells=4, min_symbolic_cells=0)


def test_scheduling_needs_no_networkx():
    """An install with only the declared dependencies can schedule workloads."""
    repo_root = Path(__file__).resolve().parents[2]
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of it now fails\n"
        "from repro.backends import get_backend\n"
        "from repro.workloads import build_workload\n"
        "workload = build_workload('nvsa', num_tasks=2)\n"
        "for scheduler in ('adaptive', 'sequential'):\n"
        "    report = get_backend('cogsys').execute(workload, scheduler=scheduler)\n"
        "    assert report.total_cycles > 0, scheduler\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
    )
    assert result.returncode == 0, result.stderr
