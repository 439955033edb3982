"""Operation-graph view of a workload for scheduling.

The graph is plain dictionaries (successor lists and per-kernel counts of
incomplete predecessors); it needs no graph library.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.workloads.base import KernelOp, Workload

__all__ = ["OperationGraph"]


class OperationGraph:
    """A dependency DAG over a workload's kernels.

    The scheduler interacts with the graph through ``ready_kernels`` /
    ``mark_complete``, which lets it discover newly unblocked kernels as
    execution progresses.  Each kernel keeps a count of its incomplete
    predecessors, so a whole schedule costs O(V + E) graph updates rather
    than a rescan of every node per dispatch.  Kahn's algorithm rejects
    cyclic graphs at construction and orders ``critical_path_length``.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._kernels = {kernel.name: kernel for kernel in workload.kernels}
        self._order = {name: index for index, name in enumerate(self._kernels)}
        self._successors: dict[str, list[str]] = {name: [] for name in self._kernels}
        for kernel in workload.kernels:
            # A dependency listed twice is still one edge.
            for dependency in dict.fromkeys(kernel.depends_on):
                self._successors[dependency].append(kernel.name)
        self._kahn_order()  # rejects cyclic graphs
        self._waiting = self._in_degrees()
        self._completed: set[str] = set()
        self._ready = {name for name, count in self._waiting.items() if count == 0}

    def _in_degrees(self) -> dict[str, int]:
        """Number of direct predecessors of every kernel."""
        degrees = dict.fromkeys(self._kernels, 0)
        for successors in self._successors.values():
            for successor in successors:
                degrees[successor] += 1
        return degrees

    def _kahn_order(self) -> list[str]:
        """Kernel names in a topological order; raises on a cycle."""
        waiting = self._in_degrees()
        order = [name for name, count in waiting.items() if count == 0]
        for name in order:  # ``order`` grows while it is walked
            for successor in self._successors[name]:
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    order.append(successor)
        if len(order) != len(self._kernels):
            raise SchedulingError(
                f"workload '{self.workload.name}' has a cyclic dependency graph"
            )
        return order

    def __len__(self) -> int:
        return len(self._kernels)

    def kernel(self, name: str) -> KernelOp:
        """Return the kernel stored at a node."""
        try:
            return self._kernels[name]
        except KeyError as exc:
            raise SchedulingError(f"unknown kernel '{name}'") from exc

    @property
    def completed(self) -> set[str]:
        """Names of kernels already marked complete."""
        return set(self._completed)

    @property
    def all_complete(self) -> bool:
        """True once every kernel has been marked complete."""
        return len(self._completed) == len(self)

    def ready_kernels(self, exclude: set[str] | None = None) -> list[KernelOp]:
        """Kernels whose dependencies are all complete and that are not done.

        They come in graph-node order (the workload's kernel order), which
        schedulers rely on to break ties.  ``exclude`` lists kernels that
        are currently executing and therefore neither complete nor
        schedulable.
        """
        exclude = exclude or set()
        names = [name for name in self._ready if name not in exclude]
        names.sort(key=self._order.__getitem__)
        return [self._kernels[name] for name in names]

    def mark_complete(self, name: str) -> list[KernelOp]:
        """Mark one kernel as finished; returns the kernels it made ready."""
        if name not in self._kernels:
            raise SchedulingError(f"unknown kernel '{name}'")
        if name in self._completed:
            return []
        self._completed.add(name)
        self._ready.discard(name)
        unblocked = []
        for successor in self._successors[name]:
            self._waiting[successor] -= 1
            if self._waiting[successor] == 0 and successor not in self._completed:
                self._ready.add(successor)
                unblocked.append(self._kernels[successor])
        return unblocked

    def critical_path_length(self, weight_fn) -> float:
        """Length of the critical path under a per-kernel weight function."""
        lengths: dict[str, float] = {}
        for name in self._kahn_order():
            kernel = self._kernels[name]
            longest_prefix = max(
                (lengths[dependency] for dependency in kernel.depends_on), default=0.0
            )
            lengths[name] = longest_prefix + float(weight_fn(kernel))
        return max(lengths.values()) if lengths else 0.0
