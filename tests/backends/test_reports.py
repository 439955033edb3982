"""Regression: ``ExecutionReport.symbolic_fraction`` uses the stage sum."""

import pytest

from repro.backends import ExecutionReport


def _execution_report(neural, symbolic, total=None):
    return ExecutionReport(
        backend="cogsys",
        workload="nvsa",
        total_seconds=neural + symbolic if total is None else total,
        neural_seconds=neural,
        symbolic_seconds=symbolic,
    )


class TestSymbolicFraction:
    def test_sequential_report_matches_symbolic_over_total(self):
        # Sequential devices: total == neural + symbolic, so the stage-summed
        # fraction equals symbolic / total exactly.
        report = _execution_report(2.0, 6.0)
        assert report.symbolic_fraction == pytest.approx(0.75)
        assert report.symbolic_fraction == report.symbolic_seconds / report.total_seconds

    def test_overlapped_report_uses_stage_sum_not_total(self):
        # The adaptive scheduler overlaps stages (total < neural + symbolic);
        # the fraction must keep using the stage sum.
        report = _execution_report(1.0, 3.0, total=2.5)
        assert report.symbolic_fraction == pytest.approx(0.75)
        assert report.symbolic_fraction != report.symbolic_seconds / report.total_seconds

    def test_zero_runtime_reports_zero_fraction(self):
        assert _execution_report(0.0, 0.0).symbolic_fraction == 0.0


def test_cycle_fields_default_to_none_for_device_backends():
    report = _execution_report(1.0, 1.0)
    assert report.total_cycles is None
    assert report.array_occupancy is None
    assert report.schedule is None
