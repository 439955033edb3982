"""Tests for the iterative factorizer and the exhaustive baseline."""

import numpy as np
import pytest

from repro.core import (
    ConstantGaussianNoise,
    ExhaustiveFactorizer,
    FactorizationResult,
    Factorizer,
    FactorizerConfig,
    OperationCount,
)
from repro.errors import FactorizationError
from repro.vsa import BipolarSpace, CodebookSet, HRRSpace, SceneEncoder


def _random_assignment(factors, rng):
    return {name: str(rng.choice(labels)) for name, labels in factors.items()}


class TestFactorizerConfig:
    def test_defaults_are_valid(self):
        config = FactorizerConfig()
        assert config.max_iterations >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"convergence_patience": 0},
            {"max_restarts": -1},
            {"confidence_threshold": 1.5},
            {"max_iterations": 2.5},
            {"max_iterations": float("inf")},
            {"max_restarts": 1.5},
            {"convergence_patience": 1.5},
            {"confidence_threshold": float("nan")},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(FactorizationError):
            FactorizerConfig(**kwargs)


class TestFactorizerBipolar:
    def test_recovers_clean_single_object(self, bipolar_codebooks, bipolar_encoder, rng):
        factorizer = Factorizer(bipolar_codebooks, FactorizerConfig(seed=0))
        truth = {"type": "pentagon", "size": "medium", "color": "black"}
        result = factorizer.factorize(bipolar_encoder.encode_object(truth))
        assert result.matches(truth)
        assert result.confidence > 0.9
        assert result.converged

    def test_accuracy_over_many_clean_queries(self, small_factors):
        space = BipolarSpace(1024, seed=3)
        codebooks = CodebookSet.from_factors(small_factors, space)
        encoder = SceneEncoder(codebooks)
        factorizer = Factorizer(
            codebooks,
            FactorizerConfig(similarity_noise=ConstantGaussianNoise(0.05), seed=1),
        )
        rng = np.random.default_rng(17)
        trials = 25
        correct = sum(
            factorizer.factorize(encoder.encode_object(truth)).matches(truth)
            for truth in (_random_assignment(small_factors, rng) for _ in range(trials))
        )
        assert correct / trials >= 0.9

    def test_recovers_noisy_query(self, bipolar_codebooks, bipolar_encoder, rng):
        factorizer = Factorizer(
            bipolar_codebooks,
            FactorizerConfig(similarity_noise=ConstantGaussianNoise(0.05), seed=2),
        )
        truth = {"type": "hexagon", "size": "small", "color": "white"}
        noisy = bipolar_encoder.encode_with_noise([truth], noise_std=0.4, rng=rng)
        assert factorizer.factorize(noisy).matches(truth)

    def test_result_bookkeeping_fields(self, bipolar_codebooks, bipolar_encoder):
        factorizer = Factorizer(bipolar_codebooks, FactorizerConfig(seed=0))
        truth = {"type": "square", "size": "large", "color": "red"}
        result = factorizer.factorize(bipolar_encoder.encode_object(truth))
        assert isinstance(result, FactorizationResult)
        assert set(result.labels) == {"type", "size", "color"}
        assert set(result.indices) == {"type", "size", "color"}
        assert result.label_tuple == tuple(result.labels.values())
        assert result.operations.iterations == result.iterations
        assert result.operations.matvec_flops > 0
        assert all(-1.0 <= s <= 1.0 + 1e-9 for s in result.similarities.values())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_query(self, bipolar_codebooks, bipolar_encoder, bad):
        query = bipolar_encoder.encode_object(
            {"type": "square", "size": "large", "color": "red"}
        ).copy()
        query[3] = bad
        with pytest.raises(FactorizationError, match="non-finite"):
            Factorizer(bipolar_codebooks).factorize(query)

    def test_rejects_wrong_query_shape(self, bipolar_codebooks):
        factorizer = Factorizer(bipolar_codebooks)
        with pytest.raises(FactorizationError):
            factorizer.factorize(np.ones(7))

    def test_batch_factorization(self, bipolar_codebooks, bipolar_encoder, rng):
        factorizer = Factorizer(bipolar_codebooks, FactorizerConfig(seed=0))
        truths = [
            {"type": "circle", "size": "small", "color": "grey"},
            {"type": "square", "size": "large", "color": "red"},
        ]
        queries = np.stack([bipolar_encoder.encode_object(t) for t in truths])
        results = factorizer.factorize_batch(queries)
        assert len(results) == 2
        assert results[0].matches(truths[0]) and results[1].matches(truths[1])

    def test_seeded_factorizer_is_deterministic(self, bipolar_codebooks, bipolar_encoder):
        truth = {"type": "triangle", "size": "medium", "color": "black"}
        query = bipolar_encoder.encode_object(truth)
        config = FactorizerConfig(similarity_noise=ConstantGaussianNoise(0.1), seed=9)
        first = Factorizer(bipolar_codebooks, config).factorize(query)
        second = Factorizer(bipolar_codebooks, config).factorize(query)
        assert first.labels == second.labels
        assert first.iterations == second.iterations


class TestFactorizerHRR:
    def test_recovers_clean_single_object(self, hrr_codebooks, hrr_encoder):
        factorizer = Factorizer(hrr_codebooks, FactorizerConfig(seed=0))
        truth = {"type": "circle", "size": "large", "color": "grey"}
        result = factorizer.factorize(hrr_encoder.encode_object(truth))
        assert result.matches(truth)

    def test_high_accuracy_on_hrr_space(self, small_factors):
        space = HRRSpace(512, seed=3)
        codebooks = CodebookSet.from_factors(small_factors, space)
        encoder = SceneEncoder(codebooks)
        factorizer = Factorizer(codebooks, FactorizerConfig(seed=1))
        rng = np.random.default_rng(23)
        trials = 15
        correct = sum(
            factorizer.factorize(encoder.encode_object(truth)).matches(truth)
            for truth in (_random_assignment(small_factors, rng) for _ in range(trials))
        )
        assert correct / trials >= 0.9


class TestStochasticityEffect:
    def test_noise_does_not_hurt_accuracy(self, small_factors):
        """Stochasticity should keep (or improve) accuracy vs. the baseline."""
        space = BipolarSpace(1024, seed=5)
        codebooks = CodebookSet.from_factors(small_factors, space)
        encoder = SceneEncoder(codebooks)
        rng = np.random.default_rng(31)
        truths = [_random_assignment(small_factors, rng) for _ in range(20)]
        queries = [encoder.encode_object(t) for t in truths]

        def accuracy(noise):
            config = FactorizerConfig(similarity_noise=noise, max_restarts=2, seed=4)
            factorizer = Factorizer(codebooks, config)
            return sum(
                factorizer.factorize(q).matches(t) for q, t in zip(queries, truths)
            )

        from repro.core import NoNoise

        assert accuracy(ConstantGaussianNoise(0.05)) >= accuracy(NoNoise()) - 1


class TestExhaustiveFactorizer:
    def test_exhaustive_search_is_exact(self, bipolar_codebooks, bipolar_encoder):
        exhaustive = ExhaustiveFactorizer(bipolar_codebooks)
        truth = {"type": "hexagon", "size": "medium", "color": "white"}
        result = exhaustive.factorize(bipolar_encoder.encode_object(truth))
        assert result.matches(truth)
        assert result.converged and result.iterations == 1

    def test_exhaustive_costs_scale_with_product_space(self, bipolar_codebooks):
        exhaustive = ExhaustiveFactorizer(bipolar_codebooks)
        query = bipolar_codebooks.bind_combination(
            {"type": "square", "size": "small", "color": "red"}
        )
        result = exhaustive.factorize(query)
        expected_flops = 2 * bipolar_codebooks.num_combinations * bipolar_codebooks.dim
        assert result.operations.matvec_flops == expected_flops

    def test_iterative_is_cheaper_than_exhaustive_for_large_spaces(self):
        factors = {
            "type": [f"t{i}" for i in range(8)],
            "size": [f"s{i}" for i in range(8)],
            "color": [f"c{i}" for i in range(8)],
            "position": [f"p{i}" for i in range(8)],
        }
        space = BipolarSpace(1024, seed=1)
        codebooks = CodebookSet.from_factors(factors, space)
        encoder = SceneEncoder(codebooks)
        truth = {"type": "t3", "size": "s5", "color": "c2", "position": "p7"}
        iterative = Factorizer(codebooks, FactorizerConfig(seed=0)).factorize(
            encoder.encode_object(truth)
        )
        exhaustive_flops = 2 * codebooks.num_combinations * codebooks.dim
        assert iterative.operations.matvec_flops < exhaustive_flops


class TestOperationCount:
    def test_merge_adds_fields(self):
        a = OperationCount(iterations=1, unbind_ops=2, matvec_ops=3, matvec_flops=4, elementwise_flops=5)
        b = OperationCount(iterations=10, unbind_ops=20, matvec_ops=30, matvec_flops=40, elementwise_flops=50)
        merged = a.merge(b)
        assert merged.iterations == 11
        assert merged.total_flops == 44 + 55
