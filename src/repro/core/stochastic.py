"""Stochasticity injection for the factorizer.

The paper (Sec. IV-B) observes that adding Gaussian noise to the similarity
and projection steps lets the factorization escape limit cycles and converge
in fewer iterations.  The classes here encapsulate *when* and *how much*
noise to add, so the factorizer itself stays deterministic when given
:class:`NoNoise`.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import FactorizationError

__all__ = ["NoiseSchedule", "NoNoise", "ConstantGaussianNoise", "AnnealedGaussianNoise"]


def _relative_scale(values: np.ndarray) -> float:
    """``float(np.std(values))`` of a float array, bit for bit, minus the overhead.

    numpy's ``_var`` reduces with ``add.reduce`` and divides by the element
    count, subtracts that mean, squares, reduces again and divides; ``_std``
    takes the square root.  Running the same ufuncs in the same order gives
    the same rounding at every step (and ``math.sqrt`` is correctly rounded,
    like ``np.sqrt``), so the result is identical while skipping the
    argument handling that dominated the resonator's noise step.
    """
    count = values.size
    deviations = values - np.add.reduce(values, axis=None) / count
    np.multiply(deviations, deviations, out=deviations)
    return math.sqrt(np.add.reduce(deviations, axis=None) / count)


def _check_std(name: str, value: float) -> float:
    """``value`` as a float, or a :class:`FactorizationError` unless finite and >= 0."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0):
        raise FactorizationError(f"{name} must be finite and non-negative, got {value}")
    return value


class NoiseSchedule(abc.ABC):
    """Strategy deciding the noise amplitude at a given iteration."""

    @abc.abstractmethod
    def std_at(self, iteration: int) -> float:
        """Noise standard deviation (relative to signal scale) at ``iteration``."""

    def apply(
        self,
        values: np.ndarray,
        iteration: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return ``values`` perturbed according to the schedule.

        The noise amplitude is expressed relative to the standard deviation of
        ``values`` so one schedule works across similarity vectors of very
        different scales.  That standard deviation is computed by
        :func:`_relative_scale`, which equals ``float(np.std(values))`` bit
        for bit at a fraction of its per-call cost.
        """
        std = self.std_at(iteration)
        if not std >= 0:
            raise FactorizationError(f"noise std must be non-negative, got {std}")
        if std == 0:
            return values
        scale = _relative_scale(values)
        if scale == 0.0:
            scale = 1.0
        return values + rng.normal(0.0, std * scale, size=values.shape)


class NoNoise(NoiseSchedule):
    """Disable stochasticity (the deterministic baseline factorizer)."""

    def std_at(self, iteration: int) -> float:
        return 0.0


class ConstantGaussianNoise(NoiseSchedule):
    """Inject a fixed relative amount of Gaussian noise every iteration."""

    def __init__(self, std: float = 0.05) -> None:
        self.std = _check_std("std", std)

    def std_at(self, iteration: int) -> float:
        return self.std


class AnnealedGaussianNoise(NoiseSchedule):
    """Exponentially decaying noise: strong exploration early, none late."""

    def __init__(self, initial_std: float = 0.2, decay: float = 0.9, floor: float = 0.0) -> None:
        self.initial_std = _check_std("initial_std", initial_std)
        self.floor = _check_std("floor", floor)
        if not 0 < decay <= 1:
            raise FactorizationError(f"decay must be in (0, 1], got {decay}")
        self.decay = float(decay)

    def std_at(self, iteration: int) -> float:
        return max(self.floor, self.initial_std * self.decay**iteration)
