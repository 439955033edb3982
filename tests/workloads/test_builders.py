"""Tests for the kernel builder helpers."""

import pytest

from repro.errors import WorkloadError
from repro.neural.network import build_perception_backbone
from repro.workloads import KernelKind, Stage
from repro.workloads.builders import (
    circconv_kernel,
    conv_kernel,
    elementwise_kernel,
    gemm_kernel,
    lower_perception,
    matvec_kernel,
    stamp_chain,
)


class TestKernelBuilders:
    def test_gemm_costs(self):
        kernel = gemm_kernel("g", m=4, k=8, n=16)
        assert kernel.flops == 2 * 4 * 8 * 16
        assert kernel.bytes_read == (4 * 8 + 8 * 16) * 4
        assert kernel.bytes_written == 4 * 16 * 4

    def test_conv_lowered_to_gemm_shape(self):
        kernel = conv_kernel("c", in_channels=3, out_channels=8, kernel_size=3,
                             output_height=10, output_width=10)
        assert (kernel.m, kernel.k, kernel.n) == (100, 27, 8)
        assert kernel.kind is KernelKind.CONV

    def test_matvec_counts_multiple_products(self):
        kernel = matvec_kernel("mv", rows=16, cols=64, count=5)
        assert kernel.flops == 2 * 16 * 64 * 5
        assert kernel.stage is Stage.SYMBOLIC

    def test_circconv_flops_are_quadratic_but_traffic_linear(self):
        kernel = circconv_kernel("cc", vector_dim=256, count=3)
        assert kernel.flops == 3 * (2 * 256 * 256 - 256)
        assert kernel.total_bytes == 3 * 3 * 256 * 4
        with pytest.raises(WorkloadError):
            circconv_kernel("bad", vector_dim=0, count=1)

    def test_elementwise_launch_count(self):
        kernel = elementwise_kernel("e", elements=100, ops_per_element=2, count=4)
        assert kernel.flops == 200
        assert kernel.device_launches == 4


def perception_kernels(backbone, input_shape, prefix, num_panels):
    return stamp_chain(lower_perception(backbone, input_shape, num_panels), prefix)


class TestPerceptionKernels:
    def test_lowering_produces_conv_gemm_and_elementwise(self):
        backbone = build_perception_backbone(image_size=16, width=4, num_blocks=2, embedding_dim=32)
        kernels = perception_kernels(backbone, (1, 16, 16), prefix="p", num_panels=2)
        kinds = {kernel.kind for kernel in kernels}
        assert KernelKind.CONV in kinds
        assert KernelKind.GEMM in kinds
        assert KernelKind.ELEMENTWISE in kinds

    def test_kernels_form_a_chain(self):
        backbone = build_perception_backbone(image_size=16, width=4, num_blocks=2, embedding_dim=32)
        kernels = perception_kernels(backbone, (1, 16, 16), prefix="p", num_panels=1)
        for previous, current in zip(kernels[:-1], kernels[1:]):
            if current.kind is not KernelKind.ELEMENTWISE:
                assert previous.name in current.depends_on or current.depends_on

    def test_panel_count_scales_flops(self):
        backbone = build_perception_backbone(image_size=16, width=4, num_blocks=2, embedding_dim=32)
        one = sum(k.flops for k in perception_kernels(backbone, (1, 16, 16), "p", num_panels=1))
        four = sum(k.flops for k in perception_kernels(backbone, (1, 16, 16), "p", num_panels=4))
        assert four == pytest.approx(4 * one, rel=0.05)

    def test_invalid_panel_count_rejected(self):
        backbone = build_perception_backbone(image_size=16, width=4, num_blocks=2)
        with pytest.raises(WorkloadError):
            lower_perception(backbone, (1, 16, 16), num_panels=0)

    def test_stamped_copies_are_per_task(self):
        backbone = build_perception_backbone(image_size=16, width=4, num_blocks=2, embedding_dim=32)
        template = lower_perception(backbone, (1, 16, 16), num_panels=3)
        first = stamp_chain(template, "task0/neuro", task_id=0, depends_on=("task0/bind",))
        second = stamp_chain(template, "task1/neuro", task_id=1)
        assert [k.name for k in first] == [f"task0/neuro/{k.name}" for k in template]
        assert {k.task_id for k in second} == {1}
        assert first[0].depends_on == ("task0/bind",) and second[0].depends_on == ()
        for kernels in (first, second):
            for previous, current in zip(kernels, kernels[1:]):
                assert current.depends_on == (previous.name,)
        # Stamping changes only names, tasks and dependencies.
        assert [k.flops for k in second] == [k.flops for k in template]
        assert all(k.task_id == 0 and not k.depends_on for k in template)
