"""Iterative symbolic codebook factorization (the paper's Sec. IV-A).

Given an entangled query hypervector ``q`` produced by the neural front-end
and the per-factor codebooks ``X_1 .. X_F``, the factorizer recovers the one
codevector per factor whose binding best explains ``q`` — without ever
materialising the ``M_1 * ... * M_F`` product codebook.  Each iteration runs
the paper's three steps per factor:

1. *Factor unbinding*: remove the current estimates of all other factors
   from ``q``.
2. *Similarity search*: compare the unbound estimate against the factor's
   codebook (a matrix-vector product).
3. *Factor projection*: form the next estimate as the similarity-weighted
   combination of the codevectors, then project back onto the code manifold
   (``sign`` for bipolar spaces).

Stochasticity (``repro.core.stochastic``) can be injected into steps 2 and 3
to escape limit cycles.  When an attempt settles into a low-confidence fixed
point (the reconstructed product no longer resembles the query), the
factorizer restarts from a perturbed superposition, which is the interactive
search behaviour the paper relies on for accuracy.  The loop records an
operation count so the workload and hardware models can translate
factorization into kernels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from repro.core.convergence import ConvergenceTracker
from repro.core.stochastic import NoiseSchedule, NoNoise
from repro.errors import FactorizationError
from repro.vsa.codebook import CodebookSet, ProductCodebook
from repro.vsa.spaces import BipolarSpace

__all__ = [
    "FactorizerConfig",
    "OperationCount",
    "FactorizationResult",
    "Factorizer",
    "ExhaustiveFactorizer",
]


@dataclass
class FactorizerConfig:
    """Tunable parameters of the iterative factorizer.

    Attributes
    ----------
    max_iterations:
        Hard cap on the number of unbind/search/project sweeps per attempt.
    convergence_patience:
        Number of consecutive identical decodings required to declare
        convergence (the paper's tunable convergence threshold).
    similarity_noise / projection_noise:
        Noise schedules applied to the similarity vector (step 2) and the
        projected estimate (step 3).  Defaults to no noise.
    max_restarts:
        How many additional attempts (from perturbed initial estimates) are
        allowed when an attempt converges to a low-confidence fixed point.
    confidence_threshold:
        Minimum similarity between the reconstructed product vector and the
        query for an attempt to be accepted without restarting.
    seed:
        Seed for the factorizer's private random generator (noise, restart
        perturbations).
    """

    max_iterations: int = 50
    convergence_patience: int = 2
    similarity_noise: NoiseSchedule = field(default_factory=NoNoise)
    projection_noise: NoiseSchedule = field(default_factory=NoNoise)
    max_restarts: int = 4
    confidence_threshold: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        for name, minimum in (
            ("max_iterations", 1),
            ("convergence_patience", 1),
            ("max_restarts", 0),
        ):
            value = getattr(self, name)
            try:
                valid = operator.index(value) >= minimum
            except TypeError:
                valid = False
            if not valid:
                raise FactorizationError(
                    f"{name} must be an integer >= {minimum}, got {value!r}"
                )
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise FactorizationError(
                f"confidence_threshold must be in [0, 1], got {self.confidence_threshold}"
            )


@dataclass
class OperationCount:
    """Kernel-level accounting of one factorization run.

    The counts let the workload models (``repro.workloads``) and the hardware
    simulator translate a factorization into circular convolutions,
    matrix-vector products and element-wise operations.
    """

    iterations: int = 0
    unbind_ops: int = 0
    matvec_ops: int = 0
    matvec_flops: int = 0
    elementwise_flops: int = 0

    def merge(self, other: "OperationCount") -> "OperationCount":
        """Return the element-wise sum of two counts."""
        return OperationCount(
            iterations=self.iterations + other.iterations,
            unbind_ops=self.unbind_ops + other.unbind_ops,
            matvec_ops=self.matvec_ops + other.matvec_ops,
            matvec_flops=self.matvec_flops + other.matvec_flops,
            elementwise_flops=self.elementwise_flops + other.elementwise_flops,
        )

    @property
    def total_flops(self) -> int:
        """All floating point operations attributed to the run."""
        return self.matvec_flops + self.elementwise_flops


@dataclass
class FactorizationResult:
    """Outcome of factorizing one query vector."""

    labels: dict[str, str]
    indices: dict[str, int]
    similarities: dict[str, float]
    iterations: int
    converged: bool
    cycle_detected: bool
    confidence: float
    restarts: int
    operations: OperationCount

    @property
    def label_tuple(self) -> tuple[str, ...]:
        """Decoded labels in factor order (insertion order of ``labels``)."""
        return tuple(self.labels.values())

    def matches(self, expected: dict[str, str]) -> bool:
        """True when the decoding equals ``expected`` on every shared factor."""
        return all(self.labels.get(name) == value for name, value in expected.items())


@dataclass
class _Attempt:
    """Internal record of one factorization attempt."""

    decoded: list[int]
    tracker: ConvergenceTracker
    operations: OperationCount
    confidence: float


class Factorizer:
    """Resonator-style iterative factorizer over a :class:`CodebookSet`."""

    def __init__(self, codebooks: CodebookSet, config: FactorizerConfig | None = None) -> None:
        self.codebooks = codebooks
        self.space = codebooks.space
        self.config = config or FactorizerConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # -- public API -----------------------------------------------------------
    def factorize(self, query: np.ndarray) -> FactorizationResult:
        """Decompose ``query`` into one label per factor."""
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.codebooks.dim,):
            raise FactorizationError(
                f"query has shape {query.shape}, expected ({self.codebooks.dim},)"
            )
        if not np.isfinite(query).all():
            raise FactorizationError("query has non-finite (NaN or inf) elements")

        total_ops = OperationCount()
        best: _Attempt | None = None
        restarts_used = 0
        for attempt_index in range(self.config.max_restarts + 1):
            attempt = self._run_attempt(query, perturb=attempt_index > 0)
            total_ops = total_ops.merge(attempt.operations)
            if best is None or attempt.confidence > best.confidence:
                best = attempt
            if best.confidence >= self.config.confidence_threshold:
                break
            restarts_used = attempt_index + 1
        restarts_used = min(restarts_used, self.config.max_restarts)

        return self._build_result(query, best, restarts_used, total_ops)

    def factorize_batch(self, queries: np.ndarray) -> list[FactorizationResult]:
        """Factorize each row of ``queries`` independently."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return [self.factorize(row) for row in queries]

    # -- internals -------------------------------------------------------------
    def _run_attempt(self, query: np.ndarray, perturb: bool) -> _Attempt:
        """Run one resonator sweep sequence from (possibly perturbed) init."""
        estimates = self._initial_estimates(perturb)
        tracker = ConvergenceTracker(patience=self.config.convergence_patience)
        rng = self._rng
        similarity_noise = self.config.similarity_noise.apply
        projection_noise = self.config.projection_noise.apply
        cleanup = self.space.cleanup
        matrices = [codebook.vectors for codebook in self.codebooks]
        # Bipolar estimates are exactly +-1 once cleaned up, so the product of
        # all estimates can stand in for the F - 1 unbindings (see below).
        product_unbinding = type(self.space) is BipolarSpace
        product = None
        decoded = [0] * len(matrices)
        iterations = 0

        for iteration in range(self.config.max_iterations):
            if product_unbinding and iteration == 1:
                # Every estimate has been through ``cleanup`` by now.
                product = reduce(np.multiply, estimates)
            decoded = []
            for idx, vectors in enumerate(matrices):
                if product is None:
                    unbound = self._unbind_others(query, estimates, idx)
                else:
                    # Each factor is +-1, so every product here only flips
                    # signs: it is exact in any order (signed zeros
                    # included), and ``query * others`` is bit-equal to
                    # unbinding the other estimates one by one.
                    # ``factorize`` rejects non-finite queries, so no NaN
                    # reaches this point.
                    others = product * estimates[idx]
                    unbound = query * others
                similarities = similarity_noise(vectors @ unbound, iteration, rng)
                projected = projection_noise(similarities @ vectors, iteration, rng)
                # In-place (Gauss-Seidel style) update: later factors in the
                # same sweep immediately benefit from this factor's refined
                # estimate, which is what makes the resonator converge fast.
                estimates[idx] = cleanup(projected)
                if product is not None:
                    product = others * estimates[idx]
                decoded.append(int(similarities.argmax()))

            iterations += 1
            tracker.update(decoded)
            if tracker.converged:
                break

        confidence = self._reconstruction_confidence(query, decoded)
        return _Attempt(
            decoded=decoded,
            tracker=tracker,
            operations=self._sweep_operations(iterations),
            confidence=confidence,
        )

    def _sweep_operations(self, iterations: int) -> OperationCount:
        """Operations of ``iterations`` full sweeps over every factor.

        Per factor and sweep: ``F - 1`` unbindings, a similarity search and
        a projection (two matvecs of ``4 * M * d`` FLOPs together) and one
        ``d``-element cleanup.
        """
        num_factors = len(self.codebooks)
        dim = self.codebooks.dim
        rows = sum(len(codebook) for codebook in self.codebooks)
        return OperationCount(
            iterations=iterations,
            unbind_ops=iterations * num_factors * (num_factors - 1),
            matvec_ops=iterations * 2 * num_factors,
            matvec_flops=iterations * 4 * rows * dim,
            elementwise_flops=iterations * num_factors * dim,
        )

    def _initial_estimates(self, perturb: bool) -> list[np.ndarray]:
        """Start every factor from the superposition of its codevectors.

        The raw (un-normalised) superposition is deliberately kept: squashing
        it through the space's cleanup would correlate the initial estimates
        across factors and create spurious attractors.  On restarts the
        superposition is perturbed with random codevector weights so the new
        attempt explores a different basin.
        """
        estimates = []
        for codebook in self.codebooks:
            if perturb:
                weights = self._rng.uniform(0.25, 1.0, size=len(codebook))
                weights *= self._rng.choice([-1.0, 1.0], size=len(codebook))
                estimates.append(weights @ codebook.vectors)
            else:
                estimates.append(codebook.vectors.sum(axis=0))
        return estimates

    def _unbind_others(
        self, query: np.ndarray, estimates: list[np.ndarray], target: int
    ) -> np.ndarray:
        """Unbind every factor estimate except ``target`` from the query."""
        unbound = query
        for idx, estimate in enumerate(estimates):
            if idx == target:
                continue
            unbound = self.space.unbind(unbound, estimate)
        return unbound

    def _reconstruction_confidence(self, query: np.ndarray, decoded: list[int]) -> float:
        """Similarity between the decoded product vector and the query."""
        vectors = np.stack(
            [cb.vectors[index] for cb, index in zip(self.codebooks, decoded)]
        )
        reconstruction = self.space.bind_all(vectors)
        return self.space.similarity(reconstruction, query)

    def _build_result(
        self,
        query: np.ndarray,
        attempt: _Attempt,
        restarts: int,
        total_ops: OperationCount,
    ) -> FactorizationResult:
        labels: dict[str, str] = {}
        indices: dict[str, int] = {}
        similarities: dict[str, float] = {}
        decoded = attempt.decoded
        for position, (codebook, index) in enumerate(zip(self.codebooks, decoded)):
            labels[codebook.name] = codebook.labels[index]
            indices[codebook.name] = index
            # Report the similarity of the decoded codevector against the
            # query with all *other* decoded factors unbound, which is the
            # confidence score the reasoning stage consumes.
            unbound = query
            for other_position, other_codebook in enumerate(self.codebooks):
                if other_position == position:
                    continue
                unbound = self.space.unbind(
                    unbound, other_codebook.vectors[decoded[other_position]]
                )
            similarities[codebook.name] = self.space.similarity(
                unbound, codebook.vectors[index]
            )
        return FactorizationResult(
            labels=labels,
            indices=indices,
            similarities=similarities,
            iterations=total_ops.iterations,
            converged=attempt.tracker.converged,
            cycle_detected=attempt.tracker.cycle_detected,
            confidence=attempt.confidence,
            restarts=restarts,
            operations=total_ops,
        )


class ExhaustiveFactorizer:
    """Baseline that searches the materialised product codebook.

    This is the approach the paper's factorization strategy replaces: it
    requires ``O(M^F)`` storage and one similarity search over every
    combination, but it is exact.  Only feasible for small factor spaces.
    """

    def __init__(self, codebooks: CodebookSet, max_combinations: int = 200_000) -> None:
        self.codebooks = codebooks
        self.product = ProductCodebook(codebooks, max_combinations=max_combinations)

    def factorize(self, query: np.ndarray) -> FactorizationResult:
        """Return the best combination by exhaustive similarity search."""
        query = np.asarray(query, dtype=np.float64)
        combo, similarity = self.product.lookup(query)
        labels = dict(zip(self.codebooks.factor_names, combo))
        indices = {
            name: self.codebooks[name].index_of(label) for name, label in labels.items()
        }
        count = OperationCount(
            iterations=1,
            matvec_ops=1,
            matvec_flops=2 * len(self.product) * self.codebooks.dim,
        )
        return FactorizationResult(
            labels=labels,
            indices=indices,
            similarities={name: similarity for name in labels},
            iterations=1,
            converged=True,
            cycle_detected=False,
            confidence=similarity,
            restarts=0,
            operations=count,
        )
