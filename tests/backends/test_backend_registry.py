"""Tests for the backend registry: resolution, errors, determinism."""

import pytest

from repro.backends import (
    Backend,
    CustomSpec,
    backend_info,
    backend_names,
    describe_backends,
    get_backend,
    is_symbolic_friendly,
    register_backend,
)
from repro.backends.cogsys import CogSysBackend
from repro.backends.devices import DeviceBackend
from repro.backends.registry import _registry
from repro.errors import BackendError, HardwareConfigError, ReproError
from repro.hardware.baselines import ACCELERATOR_SPECS, DEVICE_SPECS
from repro.hardware.config import CogSysConfig


class TestResolution:
    def test_every_registered_name_builds_a_backend(self):
        for name in backend_names():
            backend = get_backend(name)
            assert isinstance(backend, Backend)
            assert backend.name == name
            assert backend.power_watts > 0

    def test_registry_covers_all_device_and_accelerator_specs(self):
        names = set(backend_names())
        assert names >= set(DEVICE_SPECS)
        assert names >= set(ACCELERATOR_SPECS)
        assert {"cogsys", "cogsys_no_scaleout", "cogsys_no_nspe"} <= names

    def test_families_match_model_kind(self):
        assert get_backend("a100").family == "device"
        assert get_backend("tpu_like").family == "ml_accelerator"
        assert get_backend("cogsys").family == "cogsys"

    def test_symbolic_friendliness_requires_nspe_mode(self):
        assert is_symbolic_friendly("cogsys")
        assert is_symbolic_friendly("cogsys_no_scaleout")
        assert not is_symbolic_friendly("cogsys_no_nspe")
        assert not is_symbolic_friendly("a100")


class TestErrorPaths:
    def test_unknown_backend_raises_typed_error_not_keyerror(self):
        with pytest.raises(BackendError, match="unknown backend 'tpu_v5'"):
            get_backend("tpu_v5")
        with pytest.raises(ReproError):
            get_backend("tpu_v5")
        # BackendError stays a HardwareConfigError for older except clauses.
        with pytest.raises(HardwareConfigError):
            get_backend("tpu_v5")
        try:
            get_backend("tpu_v5")
        except KeyError:  # pragma: no cover - the bug this test guards against
            pytest.fail("unknown backend leaked a KeyError")
        except BackendError:
            pass

    def test_backend_info_unknown_name_lists_known_backends(self):
        with pytest.raises(BackendError, match="known backends"):
            backend_info("nope")

    def test_non_string_non_spec_rejected(self):
        with pytest.raises(BackendError, match="name or CustomSpec"):
            get_backend(42)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend("cogsys", lambda: CogSysBackend())

    def test_unknown_scheduler_rejected(self):
        from repro.workloads import build_workload

        with pytest.raises(BackendError, match="no scheduler"):
            get_backend("a100").execute(build_workload("nvsa"), scheduler="adaptive")


class TestDeterminism:
    def test_listing_is_sorted_and_stable(self):
        names = backend_names()
        assert list(names) == sorted(names)
        assert backend_names() == names

    def test_describe_backends_rows_sorted_by_name(self):
        rows = describe_backends()
        assert [row["name"] for row in rows] == list(backend_names())
        for row in rows:
            assert {"name", "family", "symbolic_friendly", "power_watts",
                    "schedulers", "description"} <= set(row)


class TestCustomSpec:
    def test_cogsys_config_spec_builds_named_backend(self):
        backend = get_backend(
            CustomSpec(name="cogsys_4cell", cogsys_config=CogSysConfig(num_cells=4))
        )
        assert isinstance(backend, CogSysBackend)
        assert backend.name == "cogsys_4cell"
        assert backend.accelerator.config.num_cells == 4

    def test_default_spec_is_full_cogsys(self):
        backend = get_backend(CustomSpec(name="mine"))
        assert isinstance(backend, CogSysBackend)
        assert backend.symbolic_friendly

    def test_device_spec_builds_device_backend(self):
        spec = DEVICE_SPECS["a100"]
        backend = get_backend(CustomSpec(name="my_gpu", device_spec=spec))
        assert isinstance(backend, DeviceBackend)
        assert backend.name == "my_gpu"

    def test_build_applies_the_custom_name_on_every_path(self):
        # build() and get_backend must agree on the name regardless of the
        # spec family, and reports must carry it.
        from repro.workloads import build_workload

        spec = CustomSpec(name="my_gpu", device_spec=DEVICE_SPECS["a100"])
        assert spec.build().name == "my_gpu"
        assert get_backend(spec).name == "my_gpu"
        report = get_backend(spec).execute(build_workload("nvsa"))
        assert report.backend == "my_gpu"

    def test_accelerator_spec_builds_systolic_backend(self):
        spec = ACCELERATOR_SPECS["tpu_like"]
        backend = get_backend(CustomSpec(name="my_tpu", accelerator_spec=spec))
        assert backend.family == "ml_accelerator"

    def test_ablation_flags_rejected_on_non_cogsys_specs(self):
        with pytest.raises(BackendError, match="ablation switches"):
            CustomSpec(
                name="x",
                accelerator_spec=ACCELERATOR_SPECS["tpu_like"],
                scale_out=False,
            ).build()

    def test_conflicting_specs_rejected(self):
        with pytest.raises(BackendError, match="at most one"):
            CustomSpec(
                name="both",
                device_spec=DEVICE_SPECS["a100"],
                accelerator_spec=ACCELERATOR_SPECS["tpu_like"],
            ).build()

    def test_empty_name_rejected(self):
        with pytest.raises(BackendError, match="non-empty name"):
            CustomSpec(name="").build()


class TestRegisterBackend:
    def test_registered_custom_backend_resolves_and_unregisters(self):
        register_backend(
            "test_tiny_cogsys",
            lambda: CogSysBackend(name="test_tiny_cogsys"),
            family="cogsys",
            description="test-only",
            symbolic_friendly=True,
        )
        try:
            assert "test_tiny_cogsys" in backend_names()
            assert get_backend("test_tiny_cogsys").name == "test_tiny_cogsys"
            assert is_symbolic_friendly("test_tiny_cogsys")
        finally:
            _registry().pop("test_tiny_cogsys", None)

    def test_omitted_symbolic_friendly_is_probed_from_the_factory(self):
        # Routing reads registry metadata; when the kwarg is omitted it must
        # agree with the backend's own property instead of defaulting False.
        register_backend(
            "test_probed_cogsys",
            lambda: CogSysBackend(name="test_probed_cogsys"),
            family="cogsys",
        )
        try:
            assert is_symbolic_friendly("test_probed_cogsys")
            listing = {row["name"]: row for row in describe_backends()}
            assert listing["test_probed_cogsys"]["symbolic_friendly"] is True
        finally:
            _registry().pop("test_probed_cogsys", None)
