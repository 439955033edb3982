"""Tests for the probabilistic abduction and execution engine."""

import pytest

from repro.errors import TaskGenerationError
from repro.symbolic import AttributePMF, ProbabilisticAbductionEngine
from repro.neural import PerceptionConfig, PerceptionSimulator
from repro.tasks import RavenGenerator


def _delta_panels(task, error=0.0, seed=0):
    simulator = PerceptionSimulator(
        task.attribute_domains, PerceptionConfig(error_rate=error, seed=seed)
    )
    context = [simulator.perceive_panel(panel) for panel in task.context]
    candidates = [simulator.perceive_panel(panel) for panel in task.candidates]
    return context, candidates


class TestRuleInference:
    def test_constant_rule_identified(self):
        engine = ProbabilisticAbductionEngine()
        domain = tuple(str(i) for i in range(5))
        panel = lambda v: {"x": AttributePMF.delta("x", domain, str(v))}
        context = [panel(2), panel(2), panel(2), panel(3), panel(3), panel(3), panel(4), panel(4)]
        posterior = engine.infer_rule_posterior(context, "x")
        assert posterior.most_likely == "constant"
        prediction = engine.predict_missing(context, "x", posterior)
        assert prediction.most_likely == "4"

    def test_progression_rule_identified(self):
        engine = ProbabilisticAbductionEngine()
        domain = tuple(str(i) for i in range(8))
        panel = lambda v: {"x": AttributePMF.delta("x", domain, str(v))}
        context = [panel(0), panel(1), panel(2), panel(3), panel(4), panel(5), panel(1), panel(2)]
        posterior = engine.infer_rule_posterior(context, "x")
        assert posterior.most_likely == "progression+1"
        assert engine.predict_missing(context, "x", posterior).most_likely == "3"

    def test_posterior_probabilities_normalised(self):
        engine = ProbabilisticAbductionEngine()
        domain = tuple(str(i) for i in range(5))
        panel = lambda v: {"x": AttributePMF.delta("x", domain, str(v))}
        context = [panel(1)] * 8
        posterior = engine.infer_rule_posterior(context, "x")
        assert posterior.probabilities.sum() == pytest.approx(1.0)
        assert posterior.probability_of("constant") > 0.2

    def test_unknown_rule_name_rejected(self):
        engine = ProbabilisticAbductionEngine()
        domain = ("0", "1", "2")
        panel = lambda v: {"x": AttributePMF.delta("x", domain, str(v))}
        posterior = engine.infer_rule_posterior([panel(1)] * 8, "x")
        with pytest.raises(TaskGenerationError):
            posterior.probability_of("not_a_rule")


class TestSolve:
    def test_solves_generated_tasks_with_perfect_perception(self):
        engine = ProbabilisticAbductionEngine()
        generator = RavenGenerator("center", seed=3)
        correct = 0
        tasks = generator.generate(10)
        for task in tasks:
            context, candidates = _delta_panels(task)
            result = engine.solve(context, candidates)
            correct += result.answer_index == task.answer_index
        assert correct >= 9

    def test_solves_under_mild_perception_noise(self):
        engine = ProbabilisticAbductionEngine()
        generator = RavenGenerator("left_right", seed=4)
        tasks = generator.generate(8)
        correct = 0
        for task in tasks:
            context, candidates = _delta_panels(task, error=0.05, seed=1)
            correct += engine.solve(context, candidates).answer_index == task.answer_index
        assert correct >= 6

    def test_result_fields(self):
        engine = ProbabilisticAbductionEngine()
        task = RavenGenerator("center", seed=5).generate_task()
        context, candidates = _delta_panels(task)
        result = engine.solve(context, candidates)
        assert len(result.answer_scores) == len(task.candidates)
        assert set(result.rule_posteriors) == set(task.attribute_domains)
        assert 0.0 <= result.confidence <= 1.0

    def test_wrong_context_length_rejected(self):
        engine = ProbabilisticAbductionEngine()
        task = RavenGenerator("center", seed=6).generate_task()
        context, candidates = _delta_panels(task)
        with pytest.raises(TaskGenerationError):
            engine.solve(context[:5], candidates)

    def test_empty_candidates_rejected(self):
        engine = ProbabilisticAbductionEngine()
        task = RavenGenerator("center", seed=7).generate_task()
        context, _ = _delta_panels(task)
        with pytest.raises(TaskGenerationError):
            engine.solve(context, [])

    def test_mismatched_attributes_rejected(self):
        engine = ProbabilisticAbductionEngine()
        domain = ("0", "1", "2")
        good = {"x": AttributePMF.delta("x", domain, "0")}
        bad = {"y": AttributePMF.delta("y", domain, "0")}
        with pytest.raises(TaskGenerationError):
            engine.solve([good] * 8, [bad])

    def test_engine_requires_rules(self):
        with pytest.raises(TaskGenerationError):
            ProbabilisticAbductionEngine(rules=[])
