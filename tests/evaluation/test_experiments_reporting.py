"""Tests for the experiment drivers and the reporting helpers."""

from repro.evaluation import (
    characterization,
    end_to_end,
    format_markdown_table,
    hardware_experiments,
)
from repro.evaluation.reporting import format_value
from repro.profiling import KERNEL_PROFILE


class TestReporting:
    def test_markdown_table_structure(self):
        table = format_markdown_table(["a", "b"], [[1, 2.5], ["x", 0.000001]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert len(lines) == 4

    def test_format_value_floats(self):
        assert format_value(0.5) == "0.500"
        assert format_value(1234567.0) == "1.235e+06"
        assert format_value("text") == "text"
        assert format_value(0) == "0"


class TestCheapExperiments:
    """Fast experiment drivers (the heavier ones are covered by benchmarks/)."""

    def test_characterization_memory_rows(self):
        rows = characterization.characterization_memory()
        assert {row["workload"] for row in rows} == {"nvsa", "mimonet", "lvrf", "prae"}
        assert all(row["total_mb"] > 0 for row in rows)

    def test_kernel_profile_is_published_table(self):
        assert characterization.kernel_profile() is not KERNEL_PROFILE  # copy

    def test_accelerator_comparison_footprints(self):
        rows = hardware_experiments.accelerator_comparison(vector_dim=256)
        assert rows[0]["footprint_bytes"] > rows[1]["footprint_bytes"]

    def test_bs_dataflow_comparison_speedup(self):
        result = hardware_experiments.bs_dataflow_comparison(vector_dim=4, num_convs=4)
        assert result["cogsys_cycles"] < result["tpu_like_cycles"]

    def test_st_mapping_chooses_temporal_for_nvsa_case(self):
        rows = hardware_experiments.st_mapping_tradeoff(cases=((210, 1024),))
        assert rows[0]["chosen"] == "temporal"

    def test_circconv_sweep_monotone_in_dimension(self):
        rows = hardware_experiments.circconv_speedup_sweep(vector_dims=(256, 1024), conv_counts=(1000,))
        assert rows[1]["speedup_vs_tpu"] > rows[0]["speedup_vs_tpu"]

    def test_end_to_end_speedups_single_dataset(self):
        rows = end_to_end.end_to_end_speedups(datasets=("raven",))
        row = rows[0]
        assert row["rtx2080ti"] > 1.0
        assert row["jetson_tx2"] > row["rtx2080ti"]

    def test_hardware_ablation_ordering(self):
        rows = end_to_end.hardware_ablation(num_tasks=2)
        for row in rows:
            assert row["cogsys"] < row["without_adsch_so_nspe"] == 1.0

    def test_codesign_ablation_single_dataset(self):
        rows = end_to_end.codesign_ablation(datasets=("raven",))
        assert rows[0]["cogsys_algorithm_on_cogsys_accelerator"] < 0.2
