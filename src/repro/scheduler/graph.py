"""Operation-graph view of a workload for scheduling."""

from __future__ import annotations

import networkx as nx

from repro.errors import SchedulingError
from repro.workloads.base import KernelOp, Workload

__all__ = ["OperationGraph"]


class OperationGraph:
    """A dependency DAG over a workload's kernels.

    The scheduler interacts with the graph through ``ready_kernels`` /
    ``mark_complete``, which lets it discover newly unblocked kernels as
    execution progresses.  Each kernel keeps a count of its incomplete
    predecessors, so a whole schedule costs O(V + E) graph updates rather
    than a rescan of every node per dispatch.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._graph = nx.DiGraph()
        for kernel in workload.kernels:
            self._graph.add_node(kernel.name, kernel=kernel)
        for kernel in workload.kernels:
            for dependency in kernel.depends_on:
                self._graph.add_edge(dependency, kernel.name)
        if not nx.is_directed_acyclic_graph(self._graph):
            raise SchedulingError(
                f"workload '{workload.name}' has a cyclic dependency graph"
            )
        self._completed: set[str] = set()
        self._order = {name: index for index, name in enumerate(self._graph.nodes)}
        self._waiting = dict(self._graph.in_degree)
        self._ready = {name for name, count in self._waiting.items() if count == 0}

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def kernel(self, name: str) -> KernelOp:
        """Return the kernel stored at a node."""
        try:
            return self._graph.nodes[name]["kernel"]
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
        return [self.kernel(name) for name in names]

    def mark_complete(self, name: str) -> None:
        """Mark one kernel as finished."""
        if name not in self._graph.nodes:
            raise SchedulingError(f"unknown kernel '{name}'")
        if name in self._completed:
            return
        self._completed.add(name)
        self._ready.discard(name)
        for successor in self._graph.successors(name):
            self._waiting[successor] -= 1
            if self._waiting[successor] == 0 and successor not in self._completed:
                self._ready.add(successor)

    def critical_path_length(self, weight_fn) -> float:
        """Length of the critical path under a per-kernel weight function."""
        lengths: dict[str, float] = {}
        for name in nx.topological_sort(self._graph):
            kernel = self.kernel(name)
            predecessors = list(self._graph.predecessors(name))
            longest_prefix = max((lengths[p] for p in predecessors), default=0.0)
            lengths[name] = longest_prefix + float(weight_fn(kernel))
        return max(lengths.values()) if lengths else 0.0
