"""Tests for the perception simulator (the CNN front-end substitute)."""

import pytest

from repro.errors import WorkloadError
from repro.neural import PerceptionConfig, PerceptionSimulator
from repro.vsa import BipolarSpace, CodebookSet, SceneEncoder

DOMAINS = {
    "type": ["triangle", "square", "circle"],
    "size": ["small", "large"],
}


class TestPerceptionConfig:
    def test_invalid_error_rate_rejected(self):
        with pytest.raises(WorkloadError):
            PerceptionConfig(error_rate=1.0)

    def test_invalid_concentration_rejected(self):
        with pytest.raises(WorkloadError):
            PerceptionConfig(confusion_concentration=2.0)


class TestPerceptionSimulator:
    def test_zero_error_gives_delta_pmf(self):
        simulator = PerceptionSimulator(DOMAINS, PerceptionConfig(error_rate=0.0))
        pmf = simulator.perceive_attribute("type", "square")
        assert pmf.is_delta
        assert pmf.most_likely == "square"

    def test_error_rate_spreads_mass(self):
        simulator = PerceptionSimulator(DOMAINS, PerceptionConfig(error_rate=0.2))
        pmf = simulator.perceive_attribute("type", "square")
        assert pmf.probability_of("square") == pytest.approx(0.8, abs=1e-6)
        assert pmf.probabilities.sum() == pytest.approx(1.0)
        assert not pmf.is_delta

    def test_perceive_panel_covers_all_attributes(self):
        simulator = PerceptionSimulator(DOMAINS, PerceptionConfig(error_rate=0.1))
        pmfs = simulator.perceive_panel({"type": "circle", "size": "small"})
        assert set(pmfs) == {"type", "size"}

    def test_unknown_attribute_or_value_raises(self):
        simulator = PerceptionSimulator(DOMAINS)
        with pytest.raises(WorkloadError):
            simulator.perceive_attribute("colour", "red")
        with pytest.raises(WorkloadError):
            simulator.perceive_attribute("type", "hexagon")

    def test_sampled_misperception_rate_matches_error(self):
        simulator = PerceptionSimulator(
            DOMAINS, PerceptionConfig(error_rate=0.3, seed=0)
        )
        wrong = 0
        trials = 400
        for _ in range(trials):
            detected = simulator.sample_misperceived_panel({"type": "square", "size": "small"})
            wrong += detected["type"] != "square"
        assert 0.15 < wrong / trials < 0.45

    def test_query_vector_requires_encoder(self):
        simulator = PerceptionSimulator(DOMAINS)
        with pytest.raises(WorkloadError):
            simulator.query_vector({"type": "square", "size": "small"})

    def test_query_vector_close_to_clean_encoding(self):
        space = BipolarSpace(256, seed=0)
        codebooks = CodebookSet.from_factors(DOMAINS, space)
        encoder = SceneEncoder(codebooks)
        simulator = PerceptionSimulator(
            DOMAINS, PerceptionConfig(error_rate=0.0, seed=0), encoder=encoder
        )
        query = simulator.query_vector({"type": "square", "size": "small"}, noise_std=0.1)
        clean = encoder.encode_object({"type": "square", "size": "small"})
        assert space.similarity(query, clean) > 0.9

    def test_empty_domain_rejected(self):
        with pytest.raises(WorkloadError):
            PerceptionSimulator({"type": []})

    def test_single_value_domain_is_always_certain(self):
        simulator = PerceptionSimulator({"only": ["x"]}, PerceptionConfig(error_rate=0.5))
        assert simulator.perceive_attribute("only", "x").is_delta
