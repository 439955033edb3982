"""Walk through the adaptive workload-aware scheduler (adSCH).

Run with ``python examples/scheduling_walkthrough.py``.  The script schedules
a batch of NVSA reasoning tasks on the CogSys cell array with both the
sequential baseline and the adaptive scheduler, prints the resulting
timelines, and shows how interleaving symbolic kernels of one task with the
neural kernels of another removes the symbolic bottleneck (Fig. 13).
"""

from __future__ import annotations

from repro.backends.cogsys import CogSysBackend
from repro.hardware import CogSysAccelerator
from repro.workloads import build_workload


def print_timeline(title: str, schedule, frequency_hz: float, max_rows: int = 18) -> None:
    print(f"\n--- {title} (total {schedule.total_cycles / frequency_hz * 1e3:.3f} ms) ---")
    entries = sorted(schedule.entries, key=lambda e: e.start_cycle)
    for entry in entries[:max_rows]:
        resource = "SIMD" if entry.uses_simd else f"{entry.cells_used:2d} cells"
        start_us = entry.start_cycle / frequency_hz * 1e6
        end_us = entry.end_cycle / frequency_hz * 1e6
        print(
            f"  {start_us:9.1f} -> {end_us:9.1f} us  [{resource}]  "
            f"{entry.stage.value:8s}  {entry.name}"
        )
    if len(entries) > max_rows:
        print(f"  ... ({len(entries) - max_rows} more kernels)")


def main() -> None:
    accelerator = CogSysAccelerator()
    workload = build_workload("nvsa", num_tasks=3)

    backend = CogSysBackend(accelerator)
    sequential = backend.execute(workload, scheduler="sequential")
    adaptive = backend.execute(workload, scheduler="adaptive")

    frequency = accelerator.config.frequency_hz
    print_timeline("Sequential schedule (ML-accelerator behaviour)", sequential.schedule, frequency)
    print_timeline("Adaptive adSCH schedule (CogSys)", adaptive.schedule, frequency)

    reduction = 1 - adaptive.total_seconds / sequential.total_seconds
    print(
        f"\nadSCH reduces end-to-end latency by {reduction:.1%} "
        f"({sequential.total_seconds*1e3:.3f} ms -> {adaptive.total_seconds*1e3:.3f} ms) "
        f"and raises array occupancy from {sequential.array_occupancy:.1%} "
        f"to {adaptive.array_occupancy:.1%}."
    )


if __name__ == "__main__":
    main()
