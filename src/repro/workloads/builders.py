"""Shared helpers for constructing kernel graphs.

The individual workload modules (NVSA, MIMONet, LVRF, PrAE) differ in their
kernel mix but build their graphs from the same primitives: convolutions
lowered to GEMM shape, GEMM/matvec kernels, circular-convolution bundles and
element-wise kernels.  Keeping the cost formulas in one place guarantees
every workload is accounted the same way.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.errors import WorkloadError
from repro.neural.layers import Conv2d, Linear
from repro.neural.network import SequentialNetwork
from repro.workloads.base import KernelKind, KernelOp, Stage

__all__ = [
    "conv_kernel",
    "gemm_kernel",
    "matvec_kernel",
    "circconv_kernel",
    "elementwise_kernel",
    "lower_perception",
    "stamp_chain",
]

#: storage width used for traffic accounting (FP32 activations/weights)
ELEMENT_BYTES = 4


def conv_kernel(
    name: str,
    in_channels: int,
    out_channels: int,
    kernel_size: int,
    output_height: int,
    output_width: int,
    stage: Stage = Stage.NEURAL,
    task_id: int = 0,
    depends_on: tuple[str, ...] = (),
) -> KernelOp:
    """A convolution lowered to its im2col GEMM shape."""
    m = output_height * output_width
    k = in_channels * kernel_size * kernel_size
    n = out_channels
    flops = 2 * m * k * n
    bytes_read = (m * k + k * n) * ELEMENT_BYTES
    bytes_written = m * n * ELEMENT_BYTES
    return KernelOp(
        name=name,
        kind=KernelKind.CONV,
        stage=stage,
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        m=m,
        k=k,
        n=n,
        task_id=task_id,
        depends_on=tuple(depends_on),
    )


def gemm_kernel(
    name: str,
    m: int,
    k: int,
    n: int,
    stage: Stage = Stage.NEURAL,
    task_id: int = 0,
    depends_on: tuple[str, ...] = (),
) -> KernelOp:
    """A dense matrix-matrix multiplication kernel."""
    flops = 2 * m * k * n
    bytes_read = (m * k + k * n) * ELEMENT_BYTES
    bytes_written = m * n * ELEMENT_BYTES
    return KernelOp(
        name=name,
        kind=KernelKind.GEMM,
        stage=stage,
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        m=m,
        k=k,
        n=n,
        task_id=task_id,
        depends_on=tuple(depends_on),
    )


def matvec_kernel(
    name: str,
    rows: int,
    cols: int,
    count: int = 1,
    launches: int = 0,
    stage: Stage = Stage.SYMBOLIC,
    task_id: int = 0,
    depends_on: tuple[str, ...] = (),
) -> KernelOp:
    """``count`` independent matrix-vector products (similarity searches)."""
    flops = 2 * rows * cols * count
    bytes_read = (rows * cols + cols) * count * ELEMENT_BYTES
    bytes_written = rows * count * ELEMENT_BYTES
    return KernelOp(
        name=name,
        kind=KernelKind.MATVEC,
        stage=stage,
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        m=count,
        k=cols,
        n=rows,
        count=count,
        launches=launches,
        task_id=task_id,
        depends_on=tuple(depends_on),
    )


def circconv_kernel(
    name: str,
    vector_dim: int,
    count: int,
    launches: int = 0,
    stage: Stage = Stage.SYMBOLIC,
    task_id: int = 0,
    depends_on: tuple[str, ...] = (),
) -> KernelOp:
    """``count`` circular convolutions (bindings/unbindings) of dimension ``d``.

    FLOPs use the direct O(d^2) formulation because that is what both the
    nsPE array and the GEMV lowering on TPU-like baselines execute; traffic
    is the streaming O(d) view (two inputs plus one output per operation).
    Device models that materialise the circulant matrix add their own
    overhead on top.
    """
    if vector_dim < 1:
        raise WorkloadError(f"circconv kernel '{name}' needs vector_dim >= 1")
    flops = count * (2 * vector_dim * vector_dim - vector_dim)
    bytes_read = 2 * vector_dim * count * ELEMENT_BYTES
    bytes_written = vector_dim * count * ELEMENT_BYTES
    return KernelOp(
        name=name,
        kind=KernelKind.CIRCCONV,
        stage=stage,
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        vector_dim=vector_dim,
        count=count,
        launches=launches,
        task_id=task_id,
        depends_on=tuple(depends_on),
    )


def elementwise_kernel(
    name: str,
    elements: int,
    ops_per_element: int = 1,
    count: int = 1,
    stage: Stage = Stage.SYMBOLIC,
    task_id: int = 0,
    depends_on: tuple[str, ...] = (),
) -> KernelOp:
    """A vector/element-wise kernel (activation, normalisation, scoring).

    ``count`` records how many separate small launches the operation is
    issued as on CPU/GPU baselines (symbolic pipelines launch one kernel per
    rule/attribute), which is what the per-launch overhead model in
    ``repro.hardware.baselines`` consumes.
    """
    flops = elements * ops_per_element
    bytes_read = elements * ELEMENT_BYTES
    bytes_written = elements * ELEMENT_BYTES
    return KernelOp(
        name=name,
        kind=KernelKind.ELEMENTWISE,
        stage=stage,
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        m=elements,
        count=count,
        task_id=task_id,
        depends_on=tuple(depends_on),
    )


def lower_perception(
    network: SequentialNetwork,
    input_shape: tuple[int, int, int],
    num_panels: int,
) -> list[KernelOp]:
    """Lower a perception backbone into the template of its kernel chain.

    The ``num_panels`` panels of a reasoning task are processed as a batch,
    which multiplies the GEMM ``m`` dimension rather than duplicating
    kernels (matching how the frameworks the paper profiles execute them).
    Kernels are named after their layers and carry no task or dependencies;
    :func:`stamp_chain` places copies of the template into tasks, so a
    batch of tasks lowers the backbone once.
    """
    if num_panels < 1:
        raise WorkloadError(f"num_panels must be positive, got {num_panels}")
    kernels: list[KernelOp] = []
    shape = tuple(input_shape)
    elementwise_elements = 0
    for layer in network.layers:
        stats = layer.stats(shape)
        if isinstance(layer, Conv2d):
            _, out_h, out_w = stats.output_shape
            kernels.append(
                conv_kernel(
                    layer.name,
                    in_channels=layer.in_channels,
                    out_channels=layer.out_channels,
                    kernel_size=layer.kernel_size,
                    output_height=out_h,
                    output_width=out_w * num_panels,
                )
            )
        elif isinstance(layer, Linear):
            kernels.append(
                gemm_kernel(
                    layer.name, m=num_panels, k=layer.in_features, n=layer.out_features
                )
            )
        else:
            # Fuse consecutive activation/normalisation layers into a single
            # element-wise kernel to keep the graph compact.
            elementwise_elements += int(stats.flops) * num_panels
        shape = stats.output_shape
    if elementwise_elements:
        kernels.append(
            elementwise_kernel(
                "activations0",
                elements=elementwise_elements,
                stage=Stage.NEURAL,
            )
        )
    return kernels


def stamp_chain(
    template: Sequence[KernelOp],
    prefix: str,
    task_id: int = 0,
    depends_on: tuple[str, ...] = (),
) -> list[KernelOp]:
    """Copies of ``template`` for one task, chained in order.

    Each copy is named ``{prefix}/{name}`` and tagged with ``task_id``; the
    first depends on ``depends_on`` and every later one on its predecessor.
    """
    kernels: list[KernelOp] = []
    previous = tuple(depends_on)
    for kernel in template:
        stamped = dataclasses.replace(
            kernel, name=f"{prefix}/{kernel.name}", task_id=task_id, depends_on=previous
        )
        kernels.append(stamped)
        previous = (stamped.name,)
    return kernels
