"""End-to-end neurosymbolic solvers used for the accuracy experiments.

The :class:`NeuroSymbolicSolver` mirrors the NVSA/PrAE pipeline: the
perception simulator observes each panel, the observation is either kept as
attribute PMFs (PrAE/LVRF style) or routed through VSA encoding plus the
CogSys factorizer (NVSA style, optionally with quantized codebooks), and the
probabilistic abduction engine infers rules and selects the answer.  The
CVR/SVRT solvers handle the two non-RPM benchmark families with the same
perception front-end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import (
    ConstantGaussianNoise,
    Factorizer,
    FactorizerConfig,
    NoNoise,
    Precision,
    dequantize,
    quantize,
)
from repro.errors import TaskGenerationError
from repro.neural.perception import PerceptionConfig, PerceptionSimulator
from repro.symbolic import AttributePMF, ProbabilisticAbductionEngine, logical_rule_library
from repro.tasks.base import RPMTask, TaskBatch
from repro.tasks.cvr import CVRTask
from repro.tasks.svrt import SVRTTask
from repro.vsa import BipolarSpace, Codebook, CodebookSet, SceneEncoder

__all__ = ["SolverConfig", "NeuroSymbolicSolver", "CVRSolver", "SVRTSolver"]


@dataclass(frozen=True)
class SolverConfig:
    """Configuration of the end-to-end RPM solver."""

    perception_error: float = 0.03
    use_vsa_factorization: bool = False
    vector_dim: int = 1024
    stochasticity: float = 0.0
    quantization: Precision | None = None
    query_noise: float = 0.1
    max_iterations: int = 40
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.vector_dim < 8:
            raise TaskGenerationError(f"vector_dim too small: {self.vector_dim}")
        if self.query_noise < 0 or self.stochasticity < 0:
            raise TaskGenerationError("noise parameters must be non-negative")


@dataclass
class SolveOutcome:
    """Result of solving one task."""

    correct: bool
    answer_index: int
    expected_index: int
    factorizer_iterations: int = 0


class NeuroSymbolicSolver:
    """Solve RPM tasks with simulated perception plus probabilistic abduction."""

    def __init__(self, config: SolverConfig | None = None) -> None:
        self.config = config or SolverConfig()
        self.engine = ProbabilisticAbductionEngine(logical_rule_library())
        self._rng = np.random.default_rng(self.config.seed)
        self._iterations = 0
        # Cached VSA machinery per attribute-domain signature.
        self._vsa_cache: dict[tuple, tuple[CodebookSet, SceneEncoder, Factorizer]] = {}

    # -- VSA machinery -----------------------------------------------------------
    def _vsa_for(self, task: RPMTask) -> tuple[CodebookSet, SceneEncoder, Factorizer]:
        signature = tuple((name, tuple(domain)) for name, domain in task.attribute_domains.items())
        if signature in self._vsa_cache:
            return self._vsa_cache[signature]
        space = BipolarSpace(self.config.vector_dim, seed=7)
        codebooks = []
        for name, domain in task.attribute_domains.items():
            codebook = Codebook(name, list(domain), space)
            if self.config.quantization is not None:
                restored = dequantize(quantize(codebook.vectors, self.config.quantization))
                codebook = Codebook(name, list(domain), space, vectors=restored)
            codebooks.append(codebook)
        codebook_set = CodebookSet(codebooks)
        encoder = SceneEncoder(codebook_set)
        noise = (
            ConstantGaussianNoise(self.config.stochasticity)
            if self.config.stochasticity > 0
            else NoNoise()
        )
        factorizer = Factorizer(
            codebook_set,
            FactorizerConfig(
                max_iterations=self.config.max_iterations,
                similarity_noise=noise,
                seed=self.config.seed,
            ),
        )
        self._vsa_cache[signature] = (codebook_set, encoder, factorizer)
        return self._vsa_cache[signature]

    # -- panel perception -----------------------------------------------------------
    def _perceive_panel_pmfs(
        self, simulator: PerceptionSimulator, task: RPMTask, panel
    ) -> dict[str, AttributePMF]:
        if not self.config.use_vsa_factorization:
            return simulator.perceive_panel(panel)
        # NVSA-style route: sample a concrete detection, encode it as an
        # entangled query hypervector, then recover the attributes with the
        # CogSys factorizer.  The decoded labels become near-delta PMFs whose
        # residual mass reflects the factorizer's confidence.
        _, encoder, factorizer = self._vsa_for(task)
        detected = simulator.sample_misperceived_panel(panel)
        query = encoder.encode_with_noise(
            [detected], noise_std=self.config.query_noise, rng=self._rng
        )
        result = factorizer.factorize(query)
        self._iterations += result.iterations
        pmfs: dict[str, AttributePMF] = {}
        for name, domain in task.attribute_domains.items():
            label = result.labels[name]
            confidence = min(1.0, max(0.0, result.confidence))
            leak = (1.0 - confidence) * 0.5
            probabilities = np.full(len(domain), leak / max(1, len(domain) - 1))
            probabilities[list(domain).index(label)] = 1.0 - leak
            pmfs[name] = AttributePMF.from_index_distribution(name, domain, probabilities)
        return pmfs

    # -- public API -----------------------------------------------------------------
    def solve_task(self, task: RPMTask) -> SolveOutcome:
        """Solve one task and report correctness."""
        simulator = PerceptionSimulator(
            task.attribute_domains,
            PerceptionConfig(error_rate=self.config.perception_error, seed=self.config.seed),
        )
        self._iterations = 0
        context = [self._perceive_panel_pmfs(simulator, task, panel) for panel in task.context]
        candidates = [
            self._perceive_panel_pmfs(simulator, task, panel) for panel in task.candidates
        ]
        result = self.engine.solve(context, candidates)
        return SolveOutcome(
            correct=result.answer_index == task.answer_index,
            answer_index=result.answer_index,
            expected_index=task.answer_index,
            factorizer_iterations=self._iterations,
        )

    def accuracy(self, batch: TaskBatch | list[RPMTask]) -> float:
        """Fraction of tasks in ``batch`` solved correctly."""
        tasks = list(batch)
        if not tasks:
            raise TaskGenerationError("cannot compute accuracy over an empty batch")
        correct = sum(self.solve_task(task).correct for task in tasks)
        return correct / len(tasks)


class CVRSolver:
    """Odd-one-out solver for CVR-style tasks.

    Each panel is compared against the others attribute by attribute; the
    panel with the lowest total agreement is declared the outlier.
    """

    def __init__(self, perception_error: float = 0.03, seed: int | None = 0) -> None:
        self.perception_error = perception_error
        self.seed = seed

    def solve_task(self, task: CVRTask) -> bool:
        simulator = PerceptionSimulator(
            {name: domain for name, domain in _cvr_domains(task).items()},
            PerceptionConfig(error_rate=self.perception_error, seed=self.seed),
        )
        observed = [simulator.sample_misperceived_panel(panel) for panel in task.panels]
        num_panels = len(observed)
        # An attribute "accuses" a panel when that panel is the unique
        # dissenter while every other panel agrees on one value — which is
        # exactly the structure the hidden regularity induces.  Total
        # agreement breaks ties between equally accused panels.
        accusations = [0] * num_panels
        agreements = [0] * num_panels
        for attribute in observed[0]:
            values = [panel[attribute] for panel in observed]
            for index, value in enumerate(values):
                others = [v for j, v in enumerate(values) if j != index]
                agreements[index] += sum(v == value for v in others)
                if value not in others and len(set(others)) == 1:
                    accusations[index] += 1
        ranked = sorted(
            range(num_panels), key=lambda i: (-accusations[i], agreements[i])
        )
        return ranked[0] == task.odd_index

    def accuracy(self, tasks: list[CVRTask]) -> float:
        """Fraction of odd-one-out tasks answered correctly."""
        if not tasks:
            raise TaskGenerationError("cannot compute accuracy over an empty list")
        return sum(self.solve_task(task) for task in tasks) / len(tasks)


class SVRTSolver:
    """Same/different solver for SVRT-style tasks."""

    def __init__(self, perception_error: float = 0.03, seed: int | None = 0) -> None:
        self.perception_error = perception_error
        self.seed = seed

    def solve_task(self, task: SVRTTask) -> bool:
        simulator = PerceptionSimulator(
            {name: domain for name, domain in _svrt_domains(task).items()},
            PerceptionConfig(error_rate=self.perception_error, seed=self.seed),
        )
        seen_a = simulator.sample_misperceived_panel(task.panel_a)
        seen_b = simulator.sample_misperceived_panel(task.panel_b)
        predicted_same = seen_a == seen_b
        return predicted_same == task.same

    def accuracy(self, tasks: list[SVRTTask]) -> float:
        """Fraction of same/different tasks answered correctly."""
        if not tasks:
            raise TaskGenerationError("cannot compute accuracy over an empty list")
        return sum(self.solve_task(task) for task in tasks) / len(tasks)


def _cvr_domains(task: CVRTask) -> dict[str, tuple[str, ...]]:
    from repro.tasks.cvr import CVR_DOMAINS

    return dict(CVR_DOMAINS)


def _svrt_domains(task: SVRTTask) -> dict[str, tuple[str, ...]]:
    from repro.tasks.svrt import SVRT_DOMAINS

    return dict(SVRT_DOMAINS)
