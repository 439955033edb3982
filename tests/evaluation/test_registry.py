"""Tests for the declarative experiment registry."""

import importlib
import re

import pytest

from repro.evaluation import (
    accuracy_experiments,
    characterization,
    dse_experiments,
    end_to_end,
    hardware_experiments,
    serving_experiments,
)
from repro.evaluation.engine import run
from repro.evaluation.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    UnknownExperimentError,
    all_specs,
    get_spec,
    register,
    registered_drivers,
    specs_by_tag,
)


#: every experiment driver module; each function one exports is a driver,
#: except the helpers named here
DRIVER_MODULES = (
    characterization,
    accuracy_experiments,
    hardware_experiments,
    end_to_end,
    serving_experiments,
    dse_experiments,
)
DRIVER_HELPERS = frozenset({"end_to_end.dataset_workload"})


def _public_drivers() -> dict:
    """``module.name -> function`` of every exported driver."""
    drivers = {}
    for module in DRIVER_MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            if callable(value) and key not in DRIVER_HELPERS:
                drivers[key] = value
    return drivers


class TestRegistryCompleteness:
    def test_covers_at_least_twenty_experiments(self):
        assert len(all_specs()) >= 20

    def test_every_exported_driver_registered_exactly_once(self):
        drivers = registered_drivers()
        public = _public_drivers()
        for name, driver in public.items():
            occurrences = sum(1 for registered in drivers if registered is driver)
            assert occurrences == 1, f"driver '{name}' registered {occurrences} times"
        # ... and the registry holds nothing beyond the exported drivers.
        assert len(drivers) == len(public)

    def test_ids_and_anchors_are_well_formed(self):
        ids = [spec.id for spec in all_specs()]
        assert len(ids) == len(set(ids))
        for spec in all_specs():
            # Paper anchors (fig/tab + number) plus the beyond-the-paper
            # serving and design-space-exploration experiment families.
            assert re.fullmatch(r"(fig|tab)\d{2}|serving|dse", spec.anchor), spec.anchor
            assert spec.title
            assert spec.tags

    def test_every_driver_is_importable_by_path(self):
        for spec in all_specs():
            module = importlib.import_module(spec.driver.__module__)
            assert getattr(module, spec.driver.__name__) is spec.driver

    def test_specs_by_tag_partitions_registry(self):
        tagged = {spec.id
                  for tag in ("characterization", "accuracy", "hardware", "e2e",
                              "serving", "dse")
                  for spec in specs_by_tag(tag)}
        assert tagged == set(EXPERIMENTS)

    def test_get_spec_unknown_id_raises(self):
        with pytest.raises(UnknownExperimentError):
            get_spec("fig99")


class TestServeHeteroSpec:
    def test_registered_under_the_serving_tag_with_scaled_params(self):
        spec = get_spec("serve_hetero")
        assert "serving" in spec.tags
        assert spec.anchor == "serving"
        assert spec.smoke_params.get("duration_scale") == 0.2
        assert spec.report_params.get("duration_scale") == 1.0
        assert {"backends", "scenario", "router"} <= set(spec.param_schema)

    def test_rows_carry_per_backend_utilization(self, session_cache_dir):
        table = run(
            get_spec("serve_hetero"),
            use_cache=True,
            cache_dir=session_cache_dir,
            duration_scale=0.1,
        )
        backends = [row["backend"] for row in table.rows]
        assert backends[0] == "(fleet)"
        assert backends[1:] == sorted(backends[1:])
        assert {"cogsys", "a100", "xavier_nx"} <= set(backends[1:])
        assert all("utilization" in row for row in table.rows)


class TestRegistration:
    def test_register_rejects_duplicate_id(self):
        spec = get_spec("tab04")
        with pytest.raises(ValueError, match="duplicate experiment id"):
            register(
                ExperimentSpec(
                    id="tab04",
                    title="dup",
                    anchor="tab04",
                    driver=lambda: [],
                    tags=("hardware",),
                )
            )
        assert get_spec("tab04") is spec

    def test_register_rejects_duplicate_driver(self):
        spec = get_spec("tab04")
        with pytest.raises(ValueError, match="already registered"):
            register(
                ExperimentSpec(
                    id="tab04_copy",
                    title="dup",
                    anchor="tab04",
                    driver=spec.driver,
                    tags=("hardware",),
                )
            )
        assert "tab04_copy" not in EXPERIMENTS

    def test_spec_rejects_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown tags"):
            ExperimentSpec(
                id="x", title="x", anchor="fig01", driver=lambda: [], tags=("nope",)
            )

    def test_spec_rejects_params_outside_schema(self):
        with pytest.raises(ValueError, match="missing from its schema"):
            ExperimentSpec(
                id="x",
                title="x",
                anchor="fig01",
                driver=lambda: [],
                tags=("hardware",),
                smoke_params={"num_tasks": 1},
            )


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_smoke_run_every_spec(experiment_id, session_cache_dir):
    """Every registered spec executes at smoke scale and yields a real table."""
    spec = get_spec(experiment_id)
    table = run(
        spec,
        use_cache=True,
        cache_dir=session_cache_dir,
        **spec.smoke_params,
    )
    assert table.experiment_id == experiment_id
    assert table.rows, f"'{experiment_id}' produced no rows"
    assert table.headers
    for row in table.rows:
        assert isinstance(row, dict) and row
    # Rows survived the engine's JSON normalisation: plain types only.
    for row in table.rows:
        for value in row.values():
            assert isinstance(value, (str, int, float, bool, type(None), list))
