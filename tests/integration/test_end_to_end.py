"""Integration tests spanning the full stack.

These tests wire the real components together the way the examples and the
benchmark harness do: task generation -> perception -> factorization ->
abduction for the cognition side, and workload construction -> scheduling ->
accelerator/baseline simulation for the systems side.
"""

import pytest

from repro.backends import get_backend
from repro.evaluation import NeuroSymbolicSolver, SolverConfig
from repro.tasks import IRavenGenerator, RavenGenerator
from repro.workloads import build_workload


class TestCognitionPipeline:
    def test_vsa_pipeline_beats_chance_under_noise(self):
        batch = RavenGenerator("center", seed=11).generate(6)
        solver = NeuroSymbolicSolver(
            SolverConfig(
                perception_error=0.05,
                use_vsa_factorization=True,
                stochasticity=0.05,
                vector_dim=512,
            )
        )
        accuracy = solver.accuracy(batch)
        assert accuracy > 3.0 / 8.0  # well above the 1-in-8 chance level

    def test_pmf_pipeline_on_grid_constellation(self):
        batch = IRavenGenerator("2x2_grid", seed=12).generate(6)
        accuracy = NeuroSymbolicSolver(SolverConfig(perception_error=0.03)).accuracy(batch)
        assert accuracy >= 0.5


class TestSystemsPipeline:
    @pytest.fixture(scope="class")
    def nvsa(self):
        return build_workload("nvsa")

    def test_cogsys_outperforms_every_baseline(self, nvsa):
        cogsys_seconds = get_backend("cogsys").execute(nvsa, scheduler="adaptive").total_seconds
        for device_name in ("rtx2080ti", "xeon", "xavier_nx", "jetson_tx2", "tpu_like"):
            baseline_seconds = get_backend(device_name).execute(nvsa).total_seconds
            assert baseline_seconds > cogsys_seconds

    def test_cogsys_removes_the_symbolic_bottleneck(self, nvsa):
        gpu_report = get_backend("rtx2080ti").execute(nvsa)
        cogsys_report = get_backend("cogsys").execute(nvsa, scheduler="sequential")
        assert gpu_report.symbolic_fraction > cogsys_report.symbolic_fraction

    def test_energy_advantage_is_orders_of_magnitude(self, nvsa):
        cogsys = get_backend("cogsys").execute(nvsa, scheduler="adaptive")
        gpu = get_backend("rtx2080ti").execute(nvsa)
        assert gpu.energy_joules > 100 * cogsys.energy_joules

    def test_all_four_workloads_simulate_under_both_schedulers(self):
        backend = get_backend("cogsys")
        for name in ("nvsa", "mimonet", "lvrf", "prae"):
            workload = build_workload(name)
            for scheduler in ("sequential", "adaptive"):
                report = backend.execute(workload, scheduler=scheduler)
                assert report.total_seconds > 0
