"""Tests for the numpy neural layers and their cost accounting."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.errors import DimensionMismatchError
from repro.neural import BatchNorm, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Softmax
from repro.neural import layers
from repro.workloads.registry import WORKLOAD_BUILDERS


class TestConv2d:
    def test_output_shape_and_forward_agree(self, rng):
        conv = Conv2d("conv", in_channels=3, out_channels=8, kernel_size=3, padding=1, seed=0)
        activations = rng.normal(size=(3, 10, 10))
        output = conv.forward(activations)
        assert output.shape == conv.output_shape((3, 10, 10)) == (8, 10, 10)

    def test_stride_reduces_spatial_size(self):
        conv = Conv2d("conv", 1, 4, kernel_size=3, stride=2, padding=1, seed=0)
        assert conv.output_shape((1, 16, 16)) == (4, 8, 8)

    def test_matches_manual_convolution_on_tiny_example(self):
        conv = Conv2d("conv", 1, 1, kernel_size=2, seed=0)
        conv.weights = np.ones((1, 1, 2, 2))
        conv.bias = np.zeros(1)
        activations = np.arange(9, dtype=float).reshape(1, 3, 3)
        output = conv.forward(activations)
        # Each output is the sum of a 2x2 patch.
        expected = np.array([[[0 + 1 + 3 + 4, 1 + 2 + 4 + 5], [3 + 4 + 6 + 7, 4 + 5 + 7 + 8]]])
        np.testing.assert_allclose(output, expected)

    def test_flops_formula(self):
        conv = Conv2d("conv", 2, 4, kernel_size=3, padding=1, seed=0)
        # m = 8*8 outputs, each needing 2*3*3 MACs per output channel.
        assert conv.flops((2, 8, 8)) == 2 * 4 * 8 * 8 * 2 * 3 * 3

    def test_wrong_channel_count_raises(self):
        conv = Conv2d("conv", 2, 4, kernel_size=3, seed=0)
        with pytest.raises(DimensionMismatchError):
            conv.output_shape((3, 8, 8))

    def test_invalid_configuration_raises(self):
        with pytest.raises(DimensionMismatchError):
            Conv2d("conv", 0, 4, kernel_size=3)

    def test_stats_record(self):
        conv = Conv2d("conv", 1, 2, kernel_size=3, padding=1, seed=0)
        stats = conv.stats((1, 8, 8))
        assert stats.kind == "conv"
        assert stats.params == conv.params()
        assert stats.arithmetic_intensity > 0


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        layer = Linear("fc", 6, 4, seed=0)
        x = rng.normal(size=6)
        np.testing.assert_allclose(layer.forward(x), layer.weights @ x + layer.bias)

    def test_accepts_multidimensional_input_by_flattening(self, rng):
        layer = Linear("fc", 12, 3, seed=0)
        assert layer.forward(rng.normal(size=(3, 2, 2))).shape == (3,)

    def test_wrong_size_raises(self):
        layer = Linear("fc", 6, 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            layer.output_shape((5,))

    def test_flops_and_params(self):
        layer = Linear("fc", 10, 5, seed=0)
        assert layer.flops((10,)) == 2 * 10 * 5
        assert layer.params() == 10 * 5 + 5


class TestElementwiseLayers:
    def test_relu_clamps_negatives(self):
        relu = ReLU("relu")
        np.testing.assert_array_equal(relu.forward(np.array([-1.0, 0.5])), [0.0, 0.5])

    def test_batchnorm_identity_with_default_stats(self, rng):
        bn = BatchNorm("bn", channels=4)
        x = rng.normal(size=(4, 3, 3))
        np.testing.assert_allclose(bn.forward(x), x, atol=1e-3)

    def test_batchnorm_rejects_wrong_channels(self):
        bn = BatchNorm("bn", channels=4)
        with pytest.raises(DimensionMismatchError):
            bn.forward(np.zeros((3, 2, 2)))

    def test_batchnorm_rejects_rank_zero_shape(self):
        bn = BatchNorm("bn", channels=4)
        with pytest.raises(DimensionMismatchError):
            bn.output_shape(())
        with pytest.raises(DimensionMismatchError):
            bn.forward(np.float64(1.0))

    def test_maxpool_downsamples(self):
        pool = MaxPool2d("pool", pool_size=2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        output = pool.forward(x)
        assert output.shape == (1, 2, 2)
        assert output[0, 0, 0] == 5.0  # max of the top-left 2x2 block

    def test_softmax_normalises(self, rng):
        softmax = Softmax("softmax")
        output = softmax.forward(rng.normal(size=10))
        assert output.sum() == pytest.approx(1.0)
        assert np.all(output > 0)

    def test_flatten(self, rng):
        flat = Flatten("flatten")
        assert flat.forward(rng.normal(size=(2, 3, 4))).shape == (24,)
        assert flat.flops((2, 3, 4)) == 0


@pytest.fixture
def weight_draws(monkeypatch):
    """Count every weight tensor a weighted layer draws."""
    draws = []
    original = layers._WeightedLayer._draw_weights

    def counting(self):
        draws.append(self.name)
        return original(self)

    monkeypatch.setattr(layers._WeightedLayer, "_draw_weights", counting)
    return draws


class TestLazyWeights:
    @pytest.mark.parametrize("seed", [0, 3, 101])
    def test_weights_equal_the_eager_draw(self, seed):
        # The draw the layers made eagerly at construction before weights
        # became lazy: normal(0, 1/sqrt(fan_in)) from default_rng(seed).
        conv = Conv2d("conv", 3, 5, kernel_size=3, seed=seed)
        expected = np.random.default_rng(seed).normal(
            0.0, 1.0 / np.sqrt(3 * 3 * 3), size=(5, 3, 3, 3)
        )
        np.testing.assert_array_equal(conv.weights, expected)
        linear = Linear("fc", 37, 11, seed=seed)
        expected = np.random.default_rng(seed).normal(
            0.0, 1.0 / np.sqrt(37), size=(11, 37)
        )
        np.testing.assert_array_equal(linear.weights, expected)

    def test_forward_draws_once(self, weight_draws, rng):
        layer = Linear("fc", 6, 4, seed=0)
        x = rng.normal(size=6)
        first = layer.forward(x)
        np.testing.assert_array_equal(layer.forward(x), first)
        assert weight_draws == ["fc"]

    def test_params_and_stats_do_not_draw(self, weight_draws):
        conv = Conv2d("conv", 2, 4, kernel_size=3, padding=1, seed=0)
        linear = Linear("fc", 10, 5, seed=0)
        assert conv.params() == 4 * 2 * 3 * 3 + 4
        assert linear.params() == 10 * 5 + 5
        conv.stats((2, 8, 8))
        linear.stats((10,))
        assert weight_draws == []
        assert conv.params() == conv.weights.size + conv.bias.size
        assert linear.params() == linear.weights.size + linear.bias.size

    def test_unseeded_layer_keeps_its_first_draw(self):
        layer = Conv2d("conv", 2, 3, kernel_size=3, seed=None)
        assert layer.weights is layer.weights

    def test_assigned_weights_replace_the_draw(self, weight_draws):
        layer = Linear("fc", 2, 2, seed=0)
        layer.weights = np.eye(2)
        np.testing.assert_array_equal(layer.forward(np.array([1.0, 2.0])), [1.0, 2.0])
        assert weight_draws == []

    def test_building_and_executing_workloads_draws_no_weights(self, weight_draws):
        backend = get_backend("cogsys")
        for name, builder in WORKLOAD_BUILDERS.items():
            report = backend.execute(builder())
            assert report.total_cycles > 0, name
        assert weight_draws == []
