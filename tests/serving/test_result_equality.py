"""Equality gate: whole-trace results must match the record-based readers.

The ``_reference_*`` functions are the straightforward record-based
versions of the whole-trace result path: the event core's emitted
batches and idle-disjoint runs become one :class:`RequestRecord` per
request, sorted by request id, and every summary reader unzips those
records into arrays or groups them record by record.  Every run below
must produce the same records (field by field, ``type()`` included) and
the same reader outputs: arrays byte for byte, dicts key order included.

Runs cover the plain core under join-shortest-queue, round-robin and
affinity routing at light load (idle-disjoint runs) and heavy load
(batches), sharded runs in-process, controlled, session, chaos and
telemetry-on runs, and a run that completes nothing.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import metrics, telemetry
from repro.serving.batching import ContinuousBatching
from repro.serving.chaos import ChaosTimeline, chip_failure, straggler
from repro.serving.control import ControllerConfig, run_controlled
from repro.serving.fleet import DEFAULT_BACKEND, Fleet
from repro.serving.scenarios import get_scenario
from repro.serving.sessions import SessionConfig, run_sessions
from repro.serving.simulator import (
    RecordTable,
    RequestRecord,
    ServingResult,
    ServingSimulator,
    StreamedServingResult,
    request_columns,
)

WORKLOADS = ("lvrf", "mimonet", "nvsa", "prae")
SLO_S = 0.005


class _Model:
    """Deterministic service model: ``base[w] * (0.5 + 0.5 * batch)``."""

    scheduler = "fake"
    cached_reports = 0

    def __init__(self, scale):
        self.base = {
            name: scale * factor
            for name, factor in zip(WORKLOADS, (1.0, 0.25, 1.5, 0.75))
        }

    def service_seconds(self, workload, batch_size):
        return self.base[workload] * (0.5 + 0.5 * batch_size)

    def energy_joules(self, workload, batch_size):
        return 2.0 * self.service_seconds(workload, batch_size)


LIGHT, HEAVY = 1e-4, 4e-3


def _simulator(scale, num_chips=4, router="jsq", chaos=None, vectorize=True):
    return ServingSimulator(
        service_model=_Model(scale),
        fleet=Fleet(num_chips=num_chips, router=router),
        batching_policy=ContinuousBatching(max_batch_size=8),
        chaos=chaos,
        vectorize=vectorize,
    )


def _traffic(load_scale=2.0, seed=3):
    return get_scenario("mixed_workload").traffic(seed, load_scale, 0.2)


# -- reference record assembly --------------------------------------------


def _reference_records(raw_batches, bulk_runs):
    """The record-per-request assembly of the whole-trace driver."""
    records = [
        RequestRecord(
            request_id, workload, chip_id, arrival_s, dispatch_s,
            finish_s, size,
        )
        for chip_id, dispatch_s, finish_s, size, workload, members
        in raw_batches
        for arrival_s, request_id in zip(*members)
    ]
    one = itertools.repeat(1)
    for chip_ids, arrivals, finishes, names, _codes, run_ids in bulk_runs:
        # An idle-disjoint run: every request served alone at its
        # arrival instant (dispatch == arrival, batch size 1).
        arrival_list = arrivals.tolist()
        finish_list = finishes.tolist()
        chip_iter = (
            itertools.repeat(chip_ids)
            if isinstance(chip_ids, int)
            else chip_ids.tolist()
        )
        records.extend(
            map(
                RequestRecord,
                run_ids,
                names,
                chip_iter,
                arrival_list,
                arrival_list,
                finish_list,
                one,
            )
        )
    # Plain tuple sort: request_id is the lead field and is unique.
    records.sort()
    return tuple(records)


@pytest.fixture
def captured(monkeypatch):
    """Every ``_simulate`` call's emitted batches and idle-disjoint runs.

    Each entry is ``(raw_batches, bulk_runs)`` of one call, captured by
    wrapping the emit callbacks the caller handed the core.
    """
    calls = []
    simulate = ServingSimulator._simulate

    def capturing(self, chunks, workloads, emit, emit_run=None, **kwargs):
        raw_batches, bulk_runs = [], []
        calls.append((raw_batches, bulk_runs))

        def tap(*batch):
            raw_batches.append(batch)
            emit(*batch)

        def tap_run(*run):
            bulk_runs.append(run)
            emit_run(*run)

        return simulate(
            self, chunks, workloads, tap,
            emit_run=tap_run if emit_run is not None else None, **kwargs,
        )

    monkeypatch.setattr(ServingSimulator, "_simulate", capturing)
    return calls


# -- reference readers ------------------------------------------------------


def _reference_latencies_s(records):
    return [record.latency_s for record in records]


def _reference_latency_values(records):
    return np.array([record.latency_s for record in records], dtype=float)


def _reference_queue_delay_values(records):
    return np.array([record.queue_delay_s for record in records], dtype=float)


def _reference_workload_latency_values(records):
    grouped: dict[str, list[float]] = {}
    for record in records:
        grouped.setdefault(record.workload, []).append(record.latency_s)
    return {
        workload: np.array(values, dtype=float)
        for workload, values in grouped.items()
    }


def _reference_per_backend_summary(result, slo_s):
    backends = result.chip_backends or (DEFAULT_BACKEND,) * result.num_chips
    chips_by_backend: dict[str, list[int]] = {}
    for chip, backend in enumerate(backends):
        chips_by_backend.setdefault(backend, []).append(chip)
    grouped: dict[int, list[float]] = {}
    for record in result.records:
        grouped.setdefault(record.chip, []).append(record.latency_s)
    latencies_of_chip = [
        np.array(grouped.get(chip, ()), dtype=float)
        for chip in range(result.num_chips)
    ]
    rows = []
    for backend in sorted(chips_by_backend):
        chips = chips_by_backend[backend]
        latencies = np.concatenate([latencies_of_chip[chip] for chip in chips])
        busy_s = sum(result.chip_busy_s[chip] for chip in chips)
        utilization = (
            min(1.0, busy_s / (result.span_s * len(chips)))
            if result.span_s > 0
            else 0.0
        )
        row = {
            "backend": backend,
            "chips": len(chips),
            "requests": int(latencies.size),
            "request_share": round(latencies.size / result.num_requests, 4)
            if result.num_requests
            else 0.0,
            "utilization": round(utilization, 4),
        }
        if latencies.size:
            summary = metrics._latency_summary_values(latencies)
            summary.pop("count")
            row.update(summary)
            row.update(metrics._goodput_values(latencies, slo_s, result.span_s))
        else:
            row.update(metrics._zeroed_latency_goodput(slo_s))
        rows.append(row)
    return rows


def _reference_resilience_metrics(result, window_s=0.05, tolerance=1.2):
    out = {
        "incidents": len(result.incidents),
        "requests_arrived": result.requests_arrived,
        "requests_completed": result.num_requests,
        "requests_lost": result.requests_lost,
        "requests_shed": result.requests_shed,
        "pre_incident_p95_ms": None,
        "during_p95_ms": None,
        "tail_inflation_x": None,
        "recovery_time_s": None,
    }
    records = getattr(result, "records", None)
    if not result.incidents or not records:
        return out
    first_s = min(event["at_s"] for event in result.incidents)
    last_s = max(event["at_s"] for event in result.incidents)
    arrivals = np.array([record.arrival_s for record in records], dtype=float)
    finishes = np.array([record.finish_s for record in records], dtype=float)
    latencies = finishes - arrivals
    pre = latencies[finishes <= first_s]
    if pre.size:
        pre_p95 = float(np.percentile(pre, 95))
        out["pre_incident_p95_ms"] = round(pre_p95 * 1e3, 4)
    during = latencies[(arrivals >= first_s) & (arrivals <= last_s)]
    if during.size:
        during_p95 = float(np.percentile(during, 95))
        out["during_p95_ms"] = round(during_p95 * 1e3, 4)
        if pre.size and pre_p95 > 0:
            out["tail_inflation_x"] = round(during_p95 / pre_p95, 4)
    if pre.size:
        start = last_s
        while start < result.horizon_s:
            window = latencies[(finishes > start)
                               & (finishes <= start + window_s)]
            if window.size == 0 or (
                float(np.percentile(window, 95)) <= tolerance * pre_p95
            ):
                out["recovery_time_s"] = round(
                    start + window_s - last_s, 6
                )
                break
            start += window_s
        else:
            out["recovery_time_s"] = float("inf")
    return out


def _reference_derive_series(result, window_s, chip_models):
    records = result.records
    window_s = telemetry._check_window(window_s)
    if not records:
        return telemetry.TelemetrySeries(window_s, result.num_chips, ())
    _ids, name_col, chip_col, arr_col, disp_col, fin_col, size_col = zip(
        *records
    )
    names = tuple(sorted(set(name_col)))
    code_of = {name: code for code, name in enumerate(names)}
    codes = np.fromiter(
        map(code_of.__getitem__, name_col), np.int64, len(records)
    )
    return telemetry._series_from_columns(
        arrival=np.asarray(arr_col, dtype=float),
        dispatch=np.asarray(disp_col, dtype=float),
        finish=np.asarray(fin_col, dtype=float),
        chip=np.asarray(chip_col, dtype=np.int64),
        size=np.asarray(size_col, dtype=np.int64),
        codes=codes,
        names=names,
        num_chips=result.num_chips,
        energy_of=telemetry._energy_lookup(chip_models),
        window_s=window_s,
        horizon_s=result.horizon_s,
        first_arrival_s=result.first_arrival_s,
    )


# -- comparisons --------------------------------------------------------------


def _assert_same_array(produced, expected):
    assert isinstance(produced, np.ndarray)
    assert produced.dtype == expected.dtype
    assert produced.shape == expected.shape
    assert produced.tobytes() == expected.tobytes()


def _assert_same_records(result, expected):
    produced = tuple(result.records)
    assert len(result.records) == len(expected) == len(produced)
    for got, want in zip(produced, expected):
        assert type(got) is type(want) is RequestRecord
        for got_field, want_field in zip(got, want):
            assert type(got_field) is type(want_field)
            assert got_field == want_field
    assert result.records == expected
    assert result.records == list(expected)
    assert result.records == RecordTable.from_records(expected)


def _assert_same_readers(result, records):
    """Every whole-trace reader matches its record-based reference."""
    assert result.num_requests == len(records)
    assert result.requests_arrived == (
        len(records) + result.requests_lost + result.requests_shed
    )
    latencies = result.latencies_s()
    expected_latencies = _reference_latencies_s(records)
    assert [type(value) for value in latencies] == [
        type(value) for value in expected_latencies
    ]
    assert latencies == expected_latencies
    _assert_same_array(result.latency_values(), _reference_latency_values(records))
    _assert_same_array(
        result.queue_delay_values(), _reference_queue_delay_values(records)
    )
    by_workload = result.workload_latency_values()
    expected = _reference_workload_latency_values(records)
    assert list(by_workload) == list(expected)
    for name in expected:
        _assert_same_array(by_workload[name], expected[name])
    assert metrics.per_backend_summary(result, SLO_S) == (
        _reference_per_backend_summary(result, SLO_S)
    )
    for window_s in (0.05, 0.01):
        assert metrics.resilience_metrics(result, window_s=window_s) == (
            _reference_resilience_metrics(result, window_s=window_s)
        )
    if records:
        assert metrics.summarize_result(result, SLO_S)["requests"] == len(records)


def _assert_same_series(result, simulator):
    if "chaos" in result.provenance or "controller" in result.provenance:
        return
    chip_models = simulator._chip_models()
    for window_s in (0.02, 0.005):
        series = telemetry.derive_series(result, window_s, chip_models)
        expected = _reference_derive_series(result, window_s, chip_models)
        assert series == expected


def _check(result, simulator, expected_records):
    _assert_same_records(result, expected_records)
    _assert_same_readers(result, expected_records)
    _assert_same_series(result, simulator)


# -- runs -----------------------------------------------------------------------


RUN_CASES = [
    pytest.param(router, scale, id=f"{router}-{label}")
    for router in ("jsq", "round_robin", "affinity")
    for scale, label in ((LIGHT, "light"), (HEAVY, "heavy"))
]


class TestPlainRuns:
    @pytest.mark.parametrize(("router", "scale"), RUN_CASES)
    def test_run_matches_record_assembly(self, captured, router, scale):
        simulator = _simulator(scale, router=router)
        result = simulator.run(_traffic())
        (raw_batches, bulk_runs), = captured
        _check(result, simulator, _reference_records(raw_batches, bulk_runs))

    def test_both_emit_shapes_are_covered(self, captured):
        _simulator(LIGHT, router="round_robin").run(_traffic())
        _simulator(HEAVY, router="round_robin").run(_traffic())
        (_, light_runs), (heavy_batches, _) = captured
        assert light_runs and heavy_batches
        assert max(batch[3] for batch in heavy_batches) > 1

    def test_scalar_path_matches_record_assembly(self, captured):
        simulator = _simulator(LIGHT, router="jsq", vectorize=False)
        result = simulator.run(_traffic())
        (raw_batches, bulk_runs), = captured
        assert not bulk_runs
        _check(result, simulator, _reference_records(raw_batches, bulk_runs))

    def test_telemetry_run_matches_record_assembly(
        self, captured, telemetry_contract
    ):
        simulator = _simulator(HEAVY, router="affinity")
        result = simulator.run(_traffic(), telemetry_window_s=0.01)
        (raw_batches, bulk_runs), = captured
        _check(result, simulator, _reference_records(raw_batches, bulk_runs))
        telemetry_contract(result)
        assert result.telemetry == telemetry.derive_series(
            result, 0.01, simulator._chip_models()
        )


class TestShardedRuns:
    @pytest.mark.parametrize("router", ["round_robin", "affinity"])
    @pytest.mark.parametrize("scale", [LIGHT, HEAVY])
    def test_sharded_run_matches_single_shard_records(
        self, captured, router, scale
    ):
        requests = _traffic()
        single = _simulator(scale, router=router)
        single.run(requests)
        (raw_batches, bulk_runs), *_ = captured
        expected = _reference_records(raw_batches, bulk_runs)
        simulator = _simulator(scale, router=router)
        result = simulator.run(
            requests, shards=2, shard_workers=1, telemetry_window_s=0.01
        )
        assert result.provenance["shards_effective"] > 1
        _check(result, simulator, expected)


class TestFeedbackRuns:
    def test_controlled_run_matches_record_assembly(self, captured):
        simulator = _simulator(HEAVY, num_chips=2)
        config = ControllerConfig(
            min_chips=1, max_chips=4, interval_s=0.02, warmup_s=0.01,
            slo_s=SLO_S,
        )
        result = run_controlled(simulator, config, _traffic(load_scale=4.0))
        (raw_batches, bulk_runs), = captured
        _check(result, simulator, _reference_records(raw_batches, bulk_runs))

    def test_session_run_matches_record_assembly(self, captured):
        simulator = _simulator(HEAVY, num_chips=2)
        config = SessionConfig(
            users=24, sessions_per_user=2, turns=3, think_time_s=0.002,
            session_gap_s=0.004, start_spread_s=0.02,
            mix=(("nvsa", 1.0), ("lvrf", 1.0), ("mimonet", 2.0)),
        )
        result = run_sessions(simulator, config, seed=5, telemetry_window_s=0.01)
        (raw_batches, bulk_runs), = captured
        _check(result, simulator, _reference_records(raw_batches, bulk_runs))

    def test_chaos_run_matches_record_assembly(self, captured):
        chaos = ChaosTimeline((
            chip_failure(0, 0.03, 0.05),
            straggler(1, 0.02, 0.1, 3.0),
        ))
        simulator = _simulator(HEAVY, chaos=chaos)
        result = simulator.run(_traffic(load_scale=3.0), telemetry_window_s=0.01)
        assert result.requests_lost or result.requests_shed
        (raw_batches, bulk_runs), = captured
        expected = _reference_records(raw_batches, bulk_runs)
        _check(result, simulator, expected)
        assert metrics.resilience_metrics(result)["pre_incident_p95_ms"]

    def test_run_that_completes_nothing(self, captured):
        chaos = ChaosTimeline((chip_failure(0, 0.0, math.inf),))
        simulator = _simulator(HEAVY, num_chips=1, chaos=chaos)
        result = simulator.run(_traffic())
        assert result.records == ()
        assert not result.records
        assert result.requests_shed == len(_traffic())
        (raw_batches, bulk_runs), = captured
        _check(result, simulator, _reference_records(raw_batches, bulk_runs))
        with pytest.raises(ServingError):
            metrics.summarize_result(result, SLO_S)


class TestStreamedResultsUnchanged:
    def test_streamed_result_has_no_records(self):
        simulator = _simulator(HEAVY)
        columns = request_columns(_traffic())
        result = simulator.run_stream([columns], WORKLOADS)
        assert isinstance(result, StreamedServingResult)
        assert not hasattr(result, "records")
        with pytest.raises(ServingError, match="per-request records"):
            telemetry.request_spans(result)


def test_result_built_from_a_tuple_keeps_its_records():
    records = (
        RequestRecord(7, "nvsa", 0, 0.0, 0.001, 0.003, 2),
        RequestRecord(3, "lvrf", 1, 0.0005, 0.0005, 0.002, 1),
        RequestRecord(9, "nvsa", 0, 0.0002, 0.001, 0.003, 2),
    )
    result = ServingResult(
        records=records,
        num_chips=2,
        chip_busy_s=(0.002, 0.0015),
        chip_requests=(2, 1),
        energy_joules=1.0,
        num_batches=2,
        horizon_s=0.003,
    )
    _assert_same_records(result, records)
    _assert_same_readers(result, records)
    assert result.records[1] is records[1]
    assert result.records[-2:] == records[-2:]


class TestRecordTable:
    def test_summaries_build_no_record(self, monkeypatch):
        built = []
        new = RequestRecord.__new__

        def counting_new(cls, *fields):
            built.append(fields)
            return new(cls, *fields)

        monkeypatch.setattr(RequestRecord, "__new__", counting_new)
        chaos = ChaosTimeline((chip_failure(1, 0.03, 0.02),))
        for simulator in (
            _simulator(HEAVY, router="affinity"),
            _simulator(LIGHT, router="round_robin"),
            _simulator(HEAVY, chaos=chaos),
        ):
            result = simulator.run(_traffic())
            metrics.summarize_result(result, SLO_S)
            metrics.per_workload_summary(result, SLO_S)
            metrics.per_backend_summary(result, SLO_S)
            metrics.resilience_metrics(result)
            assert result.requests_arrived == len(_traffic())
            if "chaos" not in result.provenance:
                telemetry.derive_series(result, 0.01, simulator._chip_models())
        sharded = _simulator(HEAVY, router="round_robin").run(
            _traffic(), shards=2, shard_workers=1
        )
        metrics.summarize_result(sharded, SLO_S)
        assert built == []
        assert len(tuple(sharded.records)) == len(built) > 0

    def test_records_are_built_once(self):
        result = _simulator(HEAVY).run(_traffic())
        first = result.records[0]
        assert result.records[0] is first
        assert next(iter(result.records)) is first
        assert result.records[-1].request_id == max(result.records.ids)

    def test_columns_are_read_only_and_id_sorted(self):
        records = _simulator(HEAVY, router="round_robin").run(_traffic()).records
        for name in ("ids", "codes", "chip", "arrival", "dispatch", "finish",
                     "size"):
            column = getattr(records, name)
            assert column.shape == (len(records),)
            with pytest.raises(ValueError):
                column[0] = 0
        assert (np.diff(records.ids) > 0).all()
        assert records.names == WORKLOADS

    def test_equality_across_tables_tuples_and_lists(self):
        requests = _traffic()
        table = _simulator(HEAVY, router="round_robin").run(requests).records
        other = _simulator(HEAVY, router="round_robin").run(requests).records
        sharded = _simulator(HEAVY, router="round_robin").run(
            requests, shards=4, shard_workers=1
        ).records
        assert table == other == sharded
        assert table == RecordTable.from_records(tuple(other))
        assert table == list(other) and table == tuple(other)
        assert not table != tuple(other)
        changed = list(other)
        changed[5] = changed[5]._replace(chip=changed[5].chip + 1)
        assert table != changed
        assert table != RecordTable.from_records(changed)
        renamed = list(other)
        renamed[0] = renamed[0]._replace(workload="other")
        assert table != RecordTable.from_records(renamed)
        assert table != other[:-1]
        assert table != "records"
        with pytest.raises(TypeError):
            hash(table)

    def test_mismatched_columns_are_rejected(self):
        with pytest.raises(ServingError, match="differ in length"):
            RecordTable([1, 2], [0], ("nvsa",), [0, 0], [0.0, 0.0],
                        [0.0, 0.0], [1.0, 1.0], [1, 1])
