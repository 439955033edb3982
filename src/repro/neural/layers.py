"""Numpy neural network layers with cost accounting.

Each layer implements a functional ``forward`` (enough to run the example
pipelines end to end) and reports a :class:`LayerStats` record describing
its compute and memory behaviour.  Those records are what the workload
models (``repro.workloads``) and the hardware simulator consume, so the cost
model is attached to the same objects that produce numerical outputs.

All activations use ``NCHW``-style shapes without the batch dimension:
convolutional layers take ``(channels, height, width)`` and linear layers
take flat ``(features,)`` vectors.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DimensionMismatchError

__all__ = [
    "LayerStats",
    "Layer",
    "Conv2d",
    "Linear",
    "BatchNorm",
    "ReLU",
    "MaxPool2d",
    "Softmax",
    "Flatten",
]


@dataclass(frozen=True)
class LayerStats:
    """Compute/memory characteristics of one layer at a given input shape."""

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    flops: int
    params: int

    def activation_bytes(self, element_bytes: int = 4) -> int:
        """Bytes of input plus output activations."""
        input_elements = int(np.prod(self.input_shape))
        output_elements = int(np.prod(self.output_shape))
        return (input_elements + output_elements) * element_bytes

    def weight_bytes(self, element_bytes: int = 4) -> int:
        """Bytes of parameters."""
        return self.params * element_bytes

    def total_bytes(self, element_bytes: int = 4) -> int:
        """Total data movement estimate (activations + weights)."""
        return self.activation_bytes(element_bytes) + self.weight_bytes(element_bytes)

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of traffic — the roofline x-axis."""
        total = self.total_bytes()
        return self.flops / total if total else 0.0


class Layer(abc.ABC):
    """Base class for all layers."""

    #: short kind tag used by the workload models ("conv", "gemm", ...)
    kind: str = "generic"

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    def forward(self, activations: np.ndarray) -> np.ndarray:
        """Apply the layer to an input activation tensor."""

    @abc.abstractmethod
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape produced for a given input shape."""

    @abc.abstractmethod
    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Multiply-accumulate and element-wise FLOPs for one forward pass."""

    def params(self) -> int:
        """Number of learnable parameters (0 unless overridden)."""
        return 0

    def stats(self, input_shape: tuple[int, ...]) -> LayerStats:
        """Build the :class:`LayerStats` record for ``input_shape``."""
        return LayerStats(
            name=self.name,
            kind=self.kind,
            input_shape=tuple(input_shape),
            output_shape=self.output_shape(tuple(input_shape)),
            flops=self.flops(tuple(input_shape)),
            params=self.params(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def _check_chw(shape: tuple[int, ...], layer_name: str) -> tuple[int, int, int]:
    if len(shape) != 3:
        raise DimensionMismatchError(
            f"layer '{layer_name}' expects a (C, H, W) input, got shape {shape}"
        )
    return shape


class _WeightedLayer(Layer):
    """A layer with a seeded random weight tensor that is drawn on first read.

    The cost model reads only shapes, so building a workload graph never
    pays for the draw.  ``forward`` and reads of ``weights`` see the array
    the seed produces, scaled by ``1 / sqrt(fan_in)``; ``weights`` stays
    assignable.
    """

    def __init__(self, name: str, weight_shape: tuple[int, ...], seed: int | None) -> None:
        super().__init__(name)
        self._weight_shape = weight_shape
        self._seed = seed
        self._weights: np.ndarray | None = None
        self.bias = np.zeros(weight_shape[0])

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = self._draw_weights()
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        self._weights = value

    def _draw_weights(self) -> np.ndarray:
        rng = np.random.default_rng(self._seed)
        scale = 1.0 / np.sqrt(math.prod(self._weight_shape[1:]))
        return rng.normal(0.0, scale, size=self._weight_shape)

    def params(self) -> int:
        return math.prod(self._weight_shape) + self._weight_shape[0]


class Conv2d(_WeightedLayer):
    """2-D convolution with square kernels, stride and zero padding."""

    kind = "conv"

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        seed: int | None = None,
    ) -> None:
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise DimensionMismatchError(
                f"invalid Conv2d configuration for '{name}': "
                f"in={in_channels}, out={out_channels}, k={kernel_size}, "
                f"stride={stride}, padding={padding}"
            )
        super().__init__(
            name, (out_channels, in_channels, kernel_size, kernel_size), seed
        )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def _spatial_output(self, size: int) -> int:
        return (size + 2 * self.padding - self.kernel_size) // self.stride + 1

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, height, width = _check_chw(input_shape, self.name)
        if channels != self.in_channels:
            raise DimensionMismatchError(
                f"layer '{self.name}' expects {self.in_channels} channels, got {channels}"
            )
        return (self.out_channels, self._spatial_output(height), self._spatial_output(width))

    def flops(self, input_shape: tuple[int, ...]) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        macs = (
            self.out_channels
            * out_h
            * out_w
            * self.in_channels
            * self.kernel_size
            * self.kernel_size
        )
        return 2 * macs

    def forward(self, activations: np.ndarray) -> np.ndarray:
        activations = np.asarray(activations, dtype=np.float64)
        out_channels, out_h, out_w = self.output_shape(activations.shape)
        padded = np.pad(
            activations,
            ((0, 0), (self.padding, self.padding), (self.padding, self.padding)),
        )
        output = np.empty((out_channels, out_h, out_w))
        k = self.kernel_size
        for row in range(out_h):
            for col in range(out_w):
                r0 = row * self.stride
                c0 = col * self.stride
                patch = padded[:, r0 : r0 + k, c0 : c0 + k]
                output[:, row, col] = (
                    np.tensordot(self.weights, patch, axes=([1, 2, 3], [0, 1, 2]))
                    + self.bias
                )
        return output


class Linear(_WeightedLayer):
    """Fully connected (GEMM) layer."""

    kind = "gemm"

    def __init__(self, name: str, in_features: int, out_features: int, seed: int | None = None) -> None:
        if min(in_features, out_features) < 1:
            raise DimensionMismatchError(
                f"invalid Linear configuration for '{name}': "
                f"in={in_features}, out={out_features}"
            )
        super().__init__(name, (out_features, in_features), seed)
        self.in_features = in_features
        self.out_features = out_features

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if int(np.prod(input_shape)) != self.in_features:
            raise DimensionMismatchError(
                f"layer '{self.name}' expects {self.in_features} inputs, "
                f"got shape {input_shape}"
            )
        return (self.out_features,)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        self.output_shape(input_shape)
        return 2 * self.in_features * self.out_features

    def forward(self, activations: np.ndarray) -> np.ndarray:
        flat = np.asarray(activations, dtype=np.float64).reshape(-1)
        self.output_shape(flat.shape)
        return self.weights @ flat + self.bias


class BatchNorm(Layer):
    """Inference-time batch normalisation over the channel axis."""

    kind = "elementwise"

    def __init__(self, name: str, channels: int, epsilon: float = 1e-5) -> None:
        super().__init__(name)
        if channels < 1:
            raise DimensionMismatchError(f"channels must be positive, got {channels}")
        self.channels = channels
        self.epsilon = epsilon
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if not input_shape:
            raise DimensionMismatchError(
                f"layer '{self.name}' expects a channel axis, got a rank-0 shape"
            )
        channels = input_shape[0]
        if channels != self.channels:
            raise DimensionMismatchError(
                f"layer '{self.name}' expects {self.channels} channels, got {channels}"
            )
        return tuple(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        self.output_shape(input_shape)
        return 4 * int(np.prod(input_shape))

    def params(self) -> int:
        return 2 * self.channels

    def forward(self, activations: np.ndarray) -> np.ndarray:
        activations = np.asarray(activations, dtype=np.float64)
        self.output_shape(activations.shape)
        shape = (self.channels,) + (1,) * (activations.ndim - 1)
        mean = self.running_mean.reshape(shape)
        var = self.running_var.reshape(shape)
        gamma = self.gamma.reshape(shape)
        beta = self.beta.reshape(shape)
        return gamma * (activations - mean) / np.sqrt(var + self.epsilon) + beta


class ReLU(Layer):
    """Rectified linear activation."""

    kind = "elementwise"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape))

    def forward(self, activations: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(activations, dtype=np.float64), 0.0)


class MaxPool2d(Layer):
    """Non-overlapping max pooling over square windows."""

    kind = "elementwise"

    def __init__(self, name: str, pool_size: int = 2) -> None:
        super().__init__(name)
        if pool_size < 1:
            raise DimensionMismatchError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, height, width = _check_chw(input_shape, self.name)
        return (channels, height // self.pool_size, width // self.pool_size)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        out = self.output_shape(input_shape)
        return int(np.prod(out)) * self.pool_size * self.pool_size

    def forward(self, activations: np.ndarray) -> np.ndarray:
        activations = np.asarray(activations, dtype=np.float64)
        channels, out_h, out_w = self.output_shape(activations.shape)
        p = self.pool_size
        trimmed = activations[:, : out_h * p, : out_w * p]
        reshaped = trimmed.reshape(channels, out_h, p, out_w, p)
        return reshaped.max(axis=(2, 4))


class Softmax(Layer):
    """Numerically stable softmax over the last axis."""

    kind = "elementwise"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 5 * int(np.prod(input_shape))

    def forward(self, activations: np.ndarray) -> np.ndarray:
        activations = np.asarray(activations, dtype=np.float64)
        shifted = activations - activations.max(axis=-1, keepdims=True)
        exponentials = np.exp(shifted)
        return exponentials / exponentials.sum(axis=-1, keepdims=True)


class Flatten(Layer):
    """Flatten any input tensor into a vector."""

    kind = "elementwise"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 0

    def forward(self, activations: np.ndarray) -> np.ndarray:
        return np.asarray(activations, dtype=np.float64).reshape(-1)
