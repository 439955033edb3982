"""Tests for noise schedules used by the factorizer."""

import numpy as np
import pytest

from repro.core import AnnealedGaussianNoise, ConstantGaussianNoise, NoNoise
from repro.core.stochastic import _relative_scale
from repro.errors import FactorizationError


class TestNoNoise:
    def test_std_is_zero(self):
        assert NoNoise().std_at(0) == 0.0
        assert NoNoise().std_at(100) == 0.0

    def test_apply_is_identity(self, rng):
        values = rng.normal(size=32)
        np.testing.assert_array_equal(NoNoise().apply(values, 0, rng), values)


class TestConstantGaussianNoise:
    def test_std_is_constant(self):
        schedule = ConstantGaussianNoise(0.2)
        assert schedule.std_at(0) == schedule.std_at(50) == 0.2

    def test_apply_perturbs_values(self, rng):
        schedule = ConstantGaussianNoise(0.5)
        values = rng.normal(size=64)
        noisy = schedule.apply(values, 0, rng)
        assert not np.array_equal(noisy, values)
        assert noisy.shape == values.shape

    def test_noise_scales_with_signal(self, rng):
        schedule = ConstantGaussianNoise(0.1)
        small = rng.normal(0, 1.0, size=4096)
        large = small * 100.0
        small_delta = np.std(schedule.apply(small, 0, np.random.default_rng(0)) - small)
        large_delta = np.std(schedule.apply(large, 0, np.random.default_rng(0)) - large)
        assert large_delta == pytest.approx(100 * small_delta, rel=0.05)

    def test_zero_signal_uses_unit_scale(self, rng):
        schedule = ConstantGaussianNoise(0.3)
        noisy = schedule.apply(np.zeros(16), 0, rng)
        assert np.std(noisy) > 0

    def test_negative_std_rejected(self):
        with pytest.raises(FactorizationError):
            ConstantGaussianNoise(-0.1)

    @pytest.mark.parametrize("std", [float("nan"), float("inf")])
    def test_non_finite_std_rejected(self, std):
        with pytest.raises(FactorizationError):
            ConstantGaussianNoise(std)


class TestAnnealedGaussianNoise:
    def test_std_decays_monotonically(self):
        schedule = AnnealedGaussianNoise(initial_std=0.4, decay=0.8)
        stds = [schedule.std_at(i) for i in range(10)]
        assert all(a >= b for a, b in zip(stds, stds[1:]))
        assert stds[0] == pytest.approx(0.4)

    def test_floor_is_respected(self):
        schedule = AnnealedGaussianNoise(initial_std=0.4, decay=0.5, floor=0.05)
        assert schedule.std_at(100) == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_std": -1.0},
            {"decay": 0.0},
            {"decay": 1.5},
            {"floor": -0.1},
            {"initial_std": float("inf")},
            {"floor": float("nan")},
            {"initial_std": float("nan")},
            {"decay": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(FactorizationError):
            AnnealedGaussianNoise(**kwargs)


class TestRelativeScale:
    """The noise scale equals ``float(np.std(x))`` bit for bit."""

    @pytest.mark.parametrize("size", [*range(1, 17), 512])
    def test_matches_numpy_std(self, size):
        rng = np.random.default_rng(size)
        for values in (
            rng.normal(size=size),
            rng.normal(3.0, 1e-6, size=size),
            rng.integers(-40, 40, size=size).astype(float),
            rng.normal(size=size) * 1e12,
        ):
            assert _relative_scale(values) == float(np.std(values))

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 16, 512])
    @pytest.mark.parametrize("value", [0.0, 0.1, -3.7, 1e-300, 12345.678])
    def test_constant_vectors(self, size, value):
        values = np.full(size, value)
        assert _relative_scale(values) == float(np.std(values))

    def test_matrix_input(self):
        values = np.random.default_rng(0).normal(size=(6, 50))
        assert _relative_scale(values) == float(np.std(values))
