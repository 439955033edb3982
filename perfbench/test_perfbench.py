"""The benchmark's own tests, at tiny scale (``pytest perfbench``)."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from perfbench import run, tracing, workloads

#: serving durations shrink by this factor; MIN_ITERATIONS iterations per run
TINY = ["--seconds", "0"]
TINY_SCALE = 0.02
#: two near-instant experiments stand in for the full 35-table report
SMALL_REPORT = ("tab02", "fig11a")


@pytest.fixture(scope="module")
def shared_cache():
    """One ExecutionCache for every tiny run, so cold fills happen once."""
    from repro.backends import ExecutionCache

    return ExecutionCache()


@pytest.fixture
def tiny(monkeypatch, shared_cache):
    """Shrink every workload: shared warm cache, a two-table report."""
    from repro.evaluation import report

    specs = [spec for spec in report.all_specs() if spec.id in SMALL_REPORT]
    monkeypatch.setattr(report, "all_specs", lambda: specs)
    monkeypatch.setattr(workloads, "ExecutionCache", lambda: shared_cache)


def _main(capsys, workload, trace=0, *extra):
    code = run.main(
        ["--workload", workload, "--trace", str(trace), *TINY, *extra],
        scale=TINY_SCALE,
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines, prefix):
    return {
        match.group(1): match.group(2)
        for line in lines
        if (match := re.match(rf"{prefix} (\S+) (\S+)", line))
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_printed_and_tracing_changes_no_output(
    tiny, capsys, workload
):
    """Both modes print every metric with its unit; digests agree."""
    outputs = {}
    for trace, units in ((0, run.END_TO_END_UNITS), (1, run.per_layer_units())):
        lines, result = _main(capsys, workload, trace=trace)
        assert result["correct"] is True, lines
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(units)
        for name, unit in units.items():
            assert result["metrics"][name]["unit"] == unit
            assert re.search(rf"^metric {re.escape(name)} \S+ {re.escape(unit)}$",
                             "\n".join(lines), re.M), name
        assert "metric ops_failed_frac 0 ratio" in lines
        outputs[trace] = _printed(lines, "digest")
    assert outputs[0] and outputs[0] == outputs[1]


def test_serving_iterations_hit_the_cache_and_build_nothing(
    tiny, capsys, tmp_path
):
    spans = tmp_path / "spans.jsonl"
    _, result = _main(capsys, "serve_open", 1, "--spans", str(spans))
    layers = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert layers["backends.cache_hit_ratio"] == 1.0
    assert layers["workloads.builds"] == 0
    assert layers["serving.simulated_requests"] > 0
    assert layers["serving.requests_generated"] > 0
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {"serving.simulate", "serving.traffic"} <= {r["name"] for r in records}
    assert all(r["end"] >= r["start"] for r in records)


def test_corrupted_report_section_counts_as_failed(monkeypatch, capsys):
    from repro.evaluation import report

    golden = (run.ROOT / workloads.GOLDEN_REPORT).read_text()
    corrupted = golden.replace("| nvsa | rtx2080ti | 0.007 |",
                               "| nvsa | rtx2080ti | 0.008 |", 1)
    assert corrupted != golden
    monkeypatch.setattr(report, "build_report", lambda **kwargs: corrupted)
    lines, result = _main(capsys, "report_smoke")
    titles = len(report.all_specs())
    iterations = run.MIN_ITERATIONS
    assert (result["attempted"], result["failed"]) == (
        iterations * titles, iterations
    )
    assert result["correct"] is False
    assert result["metrics"]["ops_ok_frac"]["value"] == pytest.approx(1 - 1 / titles)
    assert f"metric ops_failed_frac {1 / titles:.6g} ratio" in lines


def test_report_iteration_times_each_experiment(tiny, tmp_path):
    from repro.evaluation import engine

    before = engine.run
    workload = workloads.ReportSmoke(seed=0, scale=1.0, workdir=tmp_path,
                                     root=run.ROOT)
    (op, text, error, parts), = workload.iteration()
    assert engine.run is before
    assert (op, error) == ("report", None) and text
    assert set(parts) == {*SMALL_REPORT, "report"}
    assert all(seconds >= 0 for seconds in parts.values())


def test_report_outcomes_match_golden_sections():
    golden = (run.ROOT / workloads.GOLDEN_REPORT).read_text()
    from repro.evaluation.registry import all_specs

    titles = [spec.title for spec in all_specs()]
    assert all(outcome.ok for outcome in workloads.report_outcomes(golden, golden, titles))
    reheadered = golden.replace("# EXPERIMENTS", "# EXPERIMENTS!", 1)
    outcomes = workloads.report_outcomes(reheadered, golden, titles)
    assert [outcome.ok for outcome in outcomes].count(False) == 1


def test_conservation_break_counts_as_failed(tiny, monkeypatch, capsys):
    from repro.serving import control

    real = control.run_controlled

    def leaky(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, requests_shed=result.requests_shed + 1)

    monkeypatch.setattr(control, "run_controlled", leaky)
    lines, result = _main(capsys, "serve_feedback")
    failed = {
        line.split()[1] for line in lines
        if line.startswith("digest ") and " FAILED " in line
    }
    assert result["correct"] is False
    # The two controlled runs break conservation in every iteration.
    assert result["failed"] == 2 * run.MIN_ITERATIONS
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0
    assert failed == {
        "control_target_util_diurnal", "control_queue_pid_ramp_surge"
    }


def test_missing_program_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "serve_open", *TINY])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert "no program source" in captured.err


def test_instrumentation_restores_every_entry_point():
    from repro.evaluation import characterization, engine
    from repro.serving import scenarios, simulator
    from repro.workloads import registry

    before = (
        simulator.ServingSimulator.__dict__["run"],
        scenarios.run_controlled,
        engine.run,
        characterization.build_nvsa_workload,
        dict(registry.WORKLOAD_BUILDERS),
    )
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert simulator.ServingSimulator.__dict__["run"] is not before[0]
        assert characterization.build_nvsa_workload is not before[3]
        registry.WORKLOAD_BUILDERS["nvsa"](num_tasks=1)
    after = (
        simulator.ServingSimulator.__dict__["run"],
        scenarios.run_controlled,
        engine.run,
        characterization.build_nvsa_workload,
        dict(registry.WORKLOAD_BUILDERS),
    )
    assert after == before
    metrics = tracing.layer_metrics(tracer.take(), wall_s=1.0)
    assert metrics["workloads.builds"] == 1
    assert metrics["neural.layer_inits"] > 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["serving.simulate", 0.0, 10.0, -1, 100, True],
        ["backends.cache_fill", 2.0, 5.0, 0, None, True],
        ["serving.simulate", 6.0, 7.0, 0, 40, False],
    ]
    metrics = tracing.layer_metrics(tracer.take(), wall_s=12.0)
    assert metrics["serving.simulate_s"] == pytest.approx(7.0)
    assert metrics["backends.cache_fill_s"] == pytest.approx(3.0)
    assert metrics["serving.simulated_requests"] == 100  # outermost only
    assert metrics["trace.unattributed_s"] == pytest.approx(5.0)
    assert tracing.served_requests(
        [["serving.chaos", 0.0, 1.0, -1, 7, True]]
    ) == 7


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(
        run.WORKLOAD_NAMES[:2]
    )
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} == (
        run.per_layer_units()
    )
