"""Serving metrics: tail latency, goodput under SLO, saturation summaries.

All functions consume the plain :class:`~repro.serving.simulator.ServingResult`
/ :class:`~repro.serving.simulator.RequestRecord` structures — or the
array-native :class:`~repro.serving.simulator.StreamedServingResult` a
streamed trace replay produces — and return JSON-clean dictionaries, so
experiment drivers can hand them straight to the result engine and the
``repro serve`` CLI can print them unmodified.  The distribution math runs
on NumPy arrays either way (a full-trace result holds its records as
columns, and the result readers never build a record object), which
keeps summarizing a million-request replay vectorized.
Latencies are reported in milliseconds (the natural scale of the modelled
chip), rates in requests per second.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ServingError
from repro.serving.fleet import DEFAULT_BACKEND
from repro.serving.simulator import (
    RequestRecord,
    ServingResult,
    StreamedServingResult,
)

__all__ = [
    "percentile",
    "latency_summary",
    "queueing_summary",
    "goodput",
    "summarize_result",
    "resilience_metrics",
    "per_workload_summary",
    "per_backend_summary",
    "saturation_summary",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    if not 0 <= q <= 100:
        raise ServingError(f"percentile must be in [0, 100], got {q}")
    if len(values) == 0:
        raise ServingError("cannot take a percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _ms(seconds: float) -> float:
    """Seconds to milliseconds (the tables' latency unit)."""
    return seconds * 1e3


def _latency_summary_values(latencies: np.ndarray) -> dict:
    """p50/p95/p99/mean/max of a latency array (ms)."""
    if latencies.size == 0:
        raise ServingError("latency_summary needs at least one record")
    return {
        "count": int(latencies.size),
        "p50_ms": round(_ms(float(np.percentile(latencies, 50))), 4),
        "p95_ms": round(_ms(float(np.percentile(latencies, 95))), 4),
        "p99_ms": round(_ms(float(np.percentile(latencies, 99))), 4),
        "mean_ms": round(_ms(float(np.mean(latencies))), 4),
        "max_ms": round(_ms(float(latencies.max())), 4),
    }


def latency_summary(records: Sequence[RequestRecord]) -> dict:
    """p50/p95/p99/mean/max end-to-end latency of ``records`` (ms)."""
    if not len(records):
        raise ServingError("latency_summary needs at least one record")
    return _latency_summary_values(
        np.array([record.latency_s for record in records], dtype=float)
    )


def _queueing_summary_values(delays: np.ndarray) -> dict:
    """Mean and tail queueing delay of a delay array (ms)."""
    if delays.size == 0:
        raise ServingError("queueing_summary needs at least one record")
    return {
        "mean_queue_ms": round(_ms(float(np.mean(delays))), 4),
        "p99_queue_ms": round(_ms(float(np.percentile(delays, 99))), 4),
    }


def queueing_summary(records: Sequence[RequestRecord]) -> dict:
    """Mean and tail queueing delay of ``records`` (ms)."""
    if not len(records):
        raise ServingError("queueing_summary needs at least one record")
    return _queueing_summary_values(
        np.array([record.queue_delay_s for record in records], dtype=float)
    )


def _goodput_values(latencies: np.ndarray, slo_s: float, span_s: float) -> dict:
    """SLO attainment and goodput from a latency array."""
    if slo_s <= 0:
        raise ServingError(f"slo_s must be positive, got {slo_s}")
    if latencies.size == 0:
        raise ServingError("goodput needs at least one record")
    met = int(np.count_nonzero(latencies <= slo_s))
    return {
        "slo_ms": round(_ms(slo_s), 4),
        "slo_attainment": round(met / latencies.size, 4),
        "goodput_rps": round(met / span_s, 2) if span_s > 0 else 0.0,
    }


def goodput(
    records: Sequence[RequestRecord], slo_s: float, span_s: float
) -> dict:
    """SLO attainment and goodput (SLO-met requests per second)."""
    if slo_s <= 0:
        raise ServingError(f"slo_s must be positive, got {slo_s}")
    if not len(records):
        raise ServingError("goodput needs at least one record")
    return _goodput_values(
        np.array([record.latency_s for record in records], dtype=float),
        slo_s,
        span_s,
    )


def summarize_result(
    result: ServingResult | StreamedServingResult,
    slo_s: float,
    offered_rps: float | None = None,
) -> dict:
    """One flat row summarising a serving run (the drivers' row format)."""
    latencies = result.latency_values()
    row = {
        "requests": result.num_requests,
        "num_chips": result.num_chips,
        "throughput_rps": round(result.throughput_rps, 2),
        **_latency_summary_values(latencies),
        **_queueing_summary_values(result.queue_delay_values()),
        **_goodput_values(latencies, slo_s, result.span_s),
        "mean_batch": round(result.mean_batch_size, 3),
        "utilization": round(result.utilization, 4),
        "energy_mj_per_request": round(
            result.energy_joules / result.num_requests * 1e3, 4
        ),
    }
    row.pop("count")
    if offered_rps is not None:
        row["offered_rps"] = round(offered_rps, 2)
    if result.incidents or result.requests_lost or result.requests_shed:
        # Present only on chaos runs, so chaos-free rows (and their golden
        # tables) stay byte-identical to the pre-chaos layer.
        row["requests_arrived"] = result.requests_arrived
        row["requests_lost"] = result.requests_lost
        row["requests_shed"] = result.requests_shed
    return row


def resilience_metrics(
    result: ServingResult | StreamedServingResult,
    window_s: float = 0.05,
    tolerance: float = 1.2,
) -> dict:
    """Resilience accounting of a chaos run: losses, tail, recovery time.

    Consumes the result's realized incident log plus (when available) its
    per-request record columns, and reports:

    * the conservation counters — ``requests_arrived`` splits exactly into
      completed, lost (in-flight batch killed) and shed (queue dropped),
    * ``pre_incident_p95_ms`` — p95 latency of requests that *finished*
      before the first incident began (the healthy baseline),
    * ``during_p95_ms`` / ``tail_inflation_x`` — p95 of requests arriving
      between the first and last incident event, as a ratio to baseline,
    * ``recovery_time_s`` — time from the last incident event until the
      first ``window_s``-wide window whose completion p95 is back within
      ``tolerance`` of the baseline (an empty window — nothing completing,
      so no elevated-tail evidence — also qualifies); ``inf`` when there
      is a baseline but the tail never re-converges before the run's
      horizon (a never-recovering outage), ``None`` when there is no
      pre-incident baseline to converge to.

    Percentile fields need per-request timestamps and are therefore
    ``None`` for streamed results (which keep only latency arrays).
    """
    if window_s <= 0:
        raise ServingError(f"window_s must be positive, got {window_s}")
    if tolerance < 1.0:
        raise ServingError(f"tolerance must be >= 1.0, got {tolerance}")
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
    arrivals = records.arrival
    finishes = records.finish
    latencies = finishes - arrivals
    pre = latencies[finishes <= first_s]
    if pre.size:
        pre_p95 = float(np.percentile(pre, 95))
        out["pre_incident_p95_ms"] = round(_ms(pre_p95), 4)
    during = latencies[(arrivals >= first_s) & (arrivals <= last_s)]
    if during.size:
        during_p95 = float(np.percentile(during, 95))
        out["during_p95_ms"] = round(_ms(during_p95), 4)
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
            # There was a healthy baseline but the tail never re-converged
            # before the horizon (e.g. an infinite-duration outage):
            # distinguish "never recovered" from "no baseline to judge by".
            out["recovery_time_s"] = float("inf")
    return out


def per_workload_summary(
    result: ServingResult | StreamedServingResult, slo_s: float
) -> list[dict]:
    """Latency/goodput rows broken down by workload."""
    rows = []
    by_workload = result.workload_latency_values()
    for workload in sorted(by_workload):
        latencies = by_workload[workload]
        if latencies.size == 0:
            continue  # declared in the stream's universe but never arrived
        rows.append(
            {
                "workload": workload,
                **_latency_summary_values(latencies),
                **_goodput_values(latencies, slo_s, result.span_s),
            }
        )
    return rows


def per_backend_summary(
    result: ServingResult | StreamedServingResult, slo_s: float
) -> list[dict]:
    """Utilization/latency/goodput rows broken down by chip backend.

    The key observability surface of heterogeneous fleets: one row per
    distinct backend (sorted by name), aggregating its chips.  Backends
    whose chips served nothing still get a row — an idle pool is exactly
    what affinity-routing debugging needs to see — with zeroed latency
    fields.
    """
    backends = result.chip_backends or (DEFAULT_BACKEND,) * result.num_chips
    chips_by_backend: dict[str, list[int]] = {}
    for chip, backend in enumerate(backends):
        chips_by_backend.setdefault(backend, []).append(chip)
    if isinstance(result, StreamedServingResult):
        latencies_of_chip = list(result.chip_latency_s)
    else:
        records = result.records
        latency = records.latency()
        latencies_of_chip = [
            latency[records.chip == chip] for chip in range(result.num_chips)
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
            summary = _latency_summary_values(latencies)
            summary.pop("count")
            row.update(summary)
            row.update(_goodput_values(latencies, slo_s, result.span_s))
        else:
            row.update(_zeroed_latency_goodput(slo_s))
        rows.append(row)
    return rows


def _zeroed_latency_goodput(slo_s: float) -> dict:
    """Zero-valued latency/goodput fields for a backend that served nothing.

    Built by running the real summary functions on a synthetic record so
    the key set can never drift from the served-backend rows.
    """
    placeholder = RequestRecord(
        request_id=-1,
        workload="",
        chip=-1,
        arrival_s=0.0,
        dispatch_s=0.0,
        finish_s=0.0,
        batch_size=0,
    )
    template = {
        **latency_summary([placeholder]),
        **goodput([placeholder], slo_s, 0.0),
    }
    template.pop("count")
    zeroed = {key: 0.0 for key in template}
    zeroed["slo_ms"] = template["slo_ms"]
    return zeroed


def saturation_summary(
    rows: Sequence[dict],
    load_key: str = "load",
    latency_key: str = "p99_ms",
    knee_factor: float = 3.0,
) -> dict:
    """Find the saturation knee in a latency-vs-load sweep.

    Given per-load-point rows sorted by ``load_key``, the knee is the first
    load whose tail latency exceeds ``knee_factor`` times the lightest
    point's — the operating region a capacity planner must stay below.
    """
    if not rows:
        raise ServingError("saturation_summary needs at least one sweep row")
    ordered = sorted(rows, key=lambda row: row[load_key])
    base = ordered[0][latency_key]
    knee = None
    for row in ordered:
        if row[latency_key] > knee_factor * base:
            knee = row[load_key]
            break
    return {
        "base_load": ordered[0][load_key],
        "base_latency_ms": base,
        "peak_load": ordered[-1][load_key],
        "peak_latency_ms": ordered[-1][latency_key],
        "knee_load": knee,
        "knee_factor": knee_factor,
    }
