"""Equality gate: the resonator loop must decode exactly as the plain loop.

``_reference_run_attempt`` is the straightforward per-factor loop (unbind
every other estimate, search, project, clean up, count operations one step
at a time) with the relative noise scale taken from ``np.std``.  The
factorizer's fast path must reproduce it bit for bit: every field of every
``FactorizationResult`` and the state of the generator afterwards.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.core import (
    AnnealedGaussianNoise,
    ConstantGaussianNoise,
    Factorizer,
    FactorizerConfig,
    NoNoise,
    OperationCount,
)
from repro.core.convergence import ConvergenceTracker
from repro.core.factorizer import _Attempt
from repro.vsa import BinarySparseBlockSpace, BipolarSpace, CodebookSet, HRRSpace


def _reference_apply(schedule, values, iteration, rng):
    """The noise step with its scale taken from ``np.std``."""
    std = schedule.std_at(iteration)
    if std == 0:
        return values
    scale = float(np.std(values))
    if scale == 0.0:
        scale = 1.0
    return values + rng.normal(0.0, std * scale, size=values.shape)


def _reference_initial_estimates(self, perturb):
    estimates = []
    for codebook in self.codebooks:
        if perturb:
            weights = self._rng.uniform(0.25, 1.0, size=len(codebook))
            weights *= self._rng.choice([-1.0, 1.0], size=len(codebook))
            estimates.append(weights @ codebook.vectors)
        else:
            estimates.append(codebook.vectors.sum(axis=0))
    return estimates


def _reference_run_attempt(self, query, perturb):
    """One resonator attempt, written as the plain per-factor loop."""
    estimates = _reference_initial_estimates(self, perturb)
    tracker = ConvergenceTracker(patience=self.config.convergence_patience)
    count = OperationCount()
    decoded = [0] * len(self.codebooks)

    for iteration in range(self.config.max_iterations):
        decoded = []
        for idx, codebook in enumerate(self.codebooks):
            unbound = query
            for other, estimate in enumerate(estimates):
                if other != idx:
                    unbound = self.space.unbind(unbound, estimate)
            similarities = codebook.vectors @ unbound
            similarities = _reference_apply(
                self.config.similarity_noise, similarities, iteration, self._rng
            )
            projected = similarities @ codebook.vectors
            projected = _reference_apply(
                self.config.projection_noise, projected, iteration, self._rng
            )
            estimates[idx] = self.space.cleanup(projected)
            decoded.append(int(np.argmax(similarities)))

            count.unbind_ops += len(self.codebooks) - 1
            count.matvec_ops += 2
            count.matvec_flops += 4 * len(codebook) * self.codebooks.dim
            count.elementwise_flops += self.codebooks.dim

        count.iterations += 1
        tracker.update(decoded)
        if tracker.converged:
            break

    confidence = self._reconstruction_confidence(query, decoded)
    return _Attempt(
        decoded=decoded, tracker=tracker, operations=count, confidence=confidence
    )


_FACTORS = {
    3: {"a": 7, "b": 5, "c": 6},
    4: {"a": 6, "b": 4, "c": 5, "d": 3},
}


def _space(kind):
    if kind == "bipolar":
        return BipolarSpace(128, seed=11)
    if kind == "hrr":
        return HRRSpace(128, seed=11)
    return BinarySparseBlockSpace(128, num_blocks=4, seed=11)


def _noise(kind):
    if kind == "none":
        return NoNoise(), NoNoise()
    if kind == "constant":
        return ConstantGaussianNoise(0.1), ConstantGaussianNoise(0.05)
    return AnnealedGaussianNoise(0.3, decay=0.8), AnnealedGaussianNoise(0.1, floor=0.01)


def _queries(codebooks, rng):
    """Clean products, noisy products, products with zeroed elements."""
    queries = []
    for variant in range(6):
        vectors = [cb.vectors[rng.integers(len(cb))] for cb in codebooks]
        query = codebooks.space.bind_all(np.stack(vectors))
        if variant % 3 == 1:
            query = query + rng.normal(0.0, 0.8, size=query.shape)
        elif variant % 3 == 2:
            query = query.copy()
            query[rng.integers(query.size, size=query.size // 8)] = 0.0
        queries.append(query)
    # A superposition of two products is hard enough to force restarts.
    queries.append(queries[0] + queries[3])
    return queries


@pytest.mark.parametrize("num_factors", [3, 4])
@pytest.mark.parametrize("forced_restarts", [False, True])
@pytest.mark.parametrize("noise", ["none", "constant", "annealed"])
@pytest.mark.parametrize("space", ["bipolar", "hrr", "block"])
def test_factorize_matches_reference_loop(space, noise, forced_restarts, num_factors):
    factors = {
        name: [f"{name}{i}" for i in range(size)]
        for name, size in _FACTORS[num_factors].items()
    }
    codebooks = CodebookSet.from_factors(factors, _space(space))
    similarity_noise, projection_noise = _noise(noise)

    def make():
        return Factorizer(
            codebooks,
            FactorizerConfig(
                max_iterations=12,
                similarity_noise=similarity_noise,
                projection_noise=projection_noise,
                max_restarts=3,
                # Only clean decodings reach confidence 1.0; the rest use
                # every restart.
                confidence_threshold=1.0 if forced_restarts else 0.5,
                seed=5,
            ),
        )

    fast = make()
    reference = make()
    reference._run_attempt = types.MethodType(_reference_run_attempt, reference)
    queries = _queries(codebooks, np.random.default_rng(3))
    assert fast.factorize_batch(np.stack(queries)) == reference.factorize_batch(
        np.stack(queries)
    )
    assert fast.factorize(queries[1]) == reference.factorize(queries[1])
    assert fast._rng.bit_generator.state == reference._rng.bit_generator.state
