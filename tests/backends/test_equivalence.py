"""Acceptance: the unified protocol keeps the pre-refactor physics exactly.

``get_backend(name).execute(w)`` must return the pinned pre-refactor
timings for the NVSA smoke workload, so any drift here means a change moved
the physics. Each registered backend's report must also agree with the
model it wraps: device reports with the per-kernel model times, and the
CogSys registry names with the accelerator configurations they stand for.
"""

import pytest

from repro.backends import backend_names, get_backend
from repro.backends.cogsys import CogSysBackend
from repro.hardware import CogSysAccelerator
from repro.hardware.baselines import ACCELERATOR_SPECS, DEVICE_SPECS
from repro.workloads import Stage, build_workload

#: registry name -> constructor of the CogSys configuration it stands for
COGSYS_CONFIGS = {
    "cogsys": lambda: CogSysAccelerator(),
    "cogsys_no_scaleout": lambda: CogSysAccelerator(scale_out=False),
    "cogsys_no_nspe": lambda: CogSysAccelerator(
        scale_out=False, reconfigurable_symbolic=False
    ),
}


@pytest.fixture(scope="module")
def nvsa():
    return build_workload("nvsa")


def test_every_registered_backend_is_covered():
    assert set(backend_names()) == (
        set(DEVICE_SPECS) | set(ACCELERATOR_SPECS) | set(COGSYS_CONFIGS)
    )


@pytest.mark.parametrize("name", sorted(DEVICE_SPECS) + sorted(ACCELERATOR_SPECS))
def test_device_backends_sum_per_kernel_model_times(name, nvsa):
    backend = get_backend(name)
    report = backend.execute(nvsa)
    expected = {}
    neural = symbolic = 0.0
    for kernel in nvsa.topological_order():
        seconds = backend.model.kernel_time(kernel)
        expected[kernel.name] = seconds
        if kernel.stage is Stage.NEURAL:
            neural += seconds
        else:
            symbolic += seconds
    assert report.kernel_seconds == expected
    assert report.neural_seconds == neural
    assert report.symbolic_seconds == symbolic
    assert report.total_seconds == neural + symbolic
    assert report.energy_joules == report.total_seconds * backend.model.power_watts
    assert report.symbolic_fraction == symbolic / (neural + symbolic)
    assert report.scheduler == "sequential"
    assert report.total_cycles is None and report.schedule is None


@pytest.mark.parametrize("name", sorted(COGSYS_CONFIGS))
@pytest.mark.parametrize("scheduler", ["adaptive", "sequential"])
def test_cogsys_registry_names_match_accelerator_configs(name, scheduler, nvsa):
    registered = get_backend(name)
    direct = CogSysBackend(COGSYS_CONFIGS[name]())
    assert registered.accelerator.scale_out == direct.accelerator.scale_out
    assert (
        registered.accelerator.reconfigurable_symbolic
        == direct.accelerator.reconfigurable_symbolic
    )
    report = registered.execute(nvsa, scheduler=scheduler)
    reference = direct.execute(nvsa, scheduler=scheduler)
    assert report.backend == name
    assert report.scheduler == scheduler
    assert report.total_seconds == reference.total_seconds
    assert report.total_cycles == reference.total_cycles
    assert report.neural_seconds == reference.neural_seconds
    assert report.symbolic_seconds == reference.symbolic_seconds
    assert report.kernel_seconds == reference.kernel_seconds
    assert report.energy_joules == reference.energy_joules
    assert report.array_occupancy == reference.array_occupancy
    assert report.symbolic_fraction == reference.symbolic_fraction
    config = registered.accelerator.config
    assert report.total_seconds == config.cycles_to_seconds(report.total_cycles)


class TestGoldenReferences:
    """Pinned pre-refactor values for the NVSA smoke workload.

    These constants were captured from the pre-refactor code and anchor
    the acceptance criterion: a timing-math change cannot pass them.
    """

    def test_cogsys_adaptive_matches_pre_refactor_simulation(self, nvsa):
        report = get_backend("cogsys").execute(nvsa, scheduler="adaptive")
        assert report.total_cycles == 563002
        assert report.total_seconds == pytest.approx(7.037525e-4, rel=1e-9)

    def test_device_backends_match_pre_refactor_timings(self, nvsa):
        assert get_backend("a100").execute(nvsa).total_seconds == pytest.approx(
            3.077399232039885e-3, rel=1e-9
        )
        assert get_backend("tpu_like").execute(nvsa).total_seconds == pytest.approx(
            5.1459e-3, rel=1e-9
        )


def test_batched_reports_match_single_executions():
    backend = get_backend("cogsys")
    reports = backend.batched("nvsa", (1, 2))
    for size, report in zip((1, 2), reports):
        direct = backend.execute(build_workload("nvsa", num_tasks=size))
        assert report.total_seconds == direct.total_seconds
