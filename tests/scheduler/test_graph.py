"""Tests for the operation graph used by the schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduler import OperationGraph
from repro.workloads import Workload, build_nvsa_workload
from repro.workloads.builders import gemm_kernel


class TestOperationGraph:
    def test_ready_kernels_respect_dependencies(self):
        workload = build_nvsa_workload()
        graph = OperationGraph(workload)
        ready_names = {kernel.name for kernel in graph.ready_kernels()}
        assert any("conv0" in name for name in ready_names)
        assert not any("symb" in name for name in ready_names)

    def test_marking_complete_unlocks_dependents(self):
        a = gemm_kernel("a", 2, 2, 2)
        b = gemm_kernel("b", 2, 2, 2, depends_on=("a",))
        graph = OperationGraph(Workload(name="toy", kernels=[a, b]))
        assert [k.name for k in graph.ready_kernels()] == ["a"]
        graph.mark_complete("a")
        assert [k.name for k in graph.ready_kernels()] == ["b"]
        graph.mark_complete("b")
        assert graph.all_complete

    def test_exclude_running_kernels(self):
        a = gemm_kernel("a", 2, 2, 2)
        b = gemm_kernel("b", 2, 2, 2)
        graph = OperationGraph(Workload(name="toy", kernels=[a, b]))
        assert len(graph.ready_kernels(exclude={"a"})) == 1

    def test_cycle_detection(self):
        a = gemm_kernel("a", 2, 2, 2, depends_on=("b",))
        b = gemm_kernel("b", 2, 2, 2, depends_on=("a",))
        with pytest.raises(SchedulingError):
            OperationGraph(Workload(name="cycle", kernels=[a, b]))

    def test_unknown_kernel_rejected(self):
        graph = OperationGraph(Workload(name="toy", kernels=[gemm_kernel("a", 2, 2, 2)]))
        with pytest.raises(SchedulingError):
            graph.mark_complete("ghost")
        with pytest.raises(SchedulingError):
            graph.kernel("ghost")

    def test_critical_path_length(self):
        a = gemm_kernel("a", 2, 2, 2)
        b = gemm_kernel("b", 2, 2, 2, depends_on=("a",))
        c = gemm_kernel("c", 2, 2, 2)
        graph = OperationGraph(Workload(name="toy", kernels=[a, b, c]))
        assert graph.critical_path_length(lambda kernel: 10) == 20


def _rescanned_ready(workload, completed, exclude):
    """The full-rescan definition of readiness, in workload kernel order."""
    return [
        kernel.name
        for kernel in workload.kernels
        if kernel.name not in completed
        and kernel.name not in exclude
        and set(kernel.depends_on) <= completed
    ]


@st.composite
def dags_and_completion_orders(draw):
    """A random DAG listed in a shuffled kernel order, plus a random order
    (not necessarily topological) in which its kernels are marked done."""
    size = draw(st.integers(min_value=1, max_value=12))
    pairs = [(a, b) for b in range(size) for a in range(b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    listing = draw(st.permutations(range(size)))
    kernels = [
        gemm_kernel(
            f"k{node}", 2, 2, 2,
            depends_on=tuple(f"k{a}" for a, b in edges if b == node),
        )
        for node in listing
    ]
    completion = draw(st.permutations([f"k{node}" for node in range(size)]))
    excludes = draw(
        st.lists(
            st.sets(st.sampled_from([f"k{node}" for node in range(size)])),
            min_size=size + 1,
            max_size=size + 1,
        )
    )
    return Workload(name="random", kernels=kernels), completion, excludes


@settings(max_examples=200, deadline=None)
@given(case=dags_and_completion_orders())
def test_ready_set_matches_full_rescan(case):
    workload, completion, excludes = case
    graph = OperationGraph(workload)
    completed: set[str] = set()
    for step in range(len(completion) + 1):
        exclude = excludes[step]
        expected = _rescanned_ready(workload, completed, exclude)
        assert [k.name for k in graph.ready_kernels(exclude=exclude)] == expected
        assert [k.name for k in graph.ready_kernels()] == _rescanned_ready(
            workload, completed, set()
        )
        if step < len(completion):
            graph.mark_complete(completion[step])
            # Marking a kernel twice changes nothing.
            graph.mark_complete(completion[step])
            completed.add(completion[step])
    assert graph.all_complete
