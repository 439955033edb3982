"""Exporters for the serving telemetry time series.

Three renderings of one :class:`~repro.serving.telemetry.TelemetrySeries`:

* :func:`write_jsonl` — a self-describing JSONL file (one header line
  declaring the frozen field list, then one window per line), the
  machine-readable format the CI schema check validates,
* :func:`to_prometheus` — Prometheus text exposition: every window
  becomes one timestamped sample per metric (per-chip gauges carry a
  ``chip`` label), ready for ``promtool``-style ingestion or diffing,
* :func:`render_dashboard` — a terminal dashboard of unicode sparklines
  over the windowed series with a summary footer (``repro serve
  --dashboard``).

Exports are deterministic functions of the series (no wall-clock
timestamps or absolute paths), so golden-file tests can assert bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ServingError
from repro.serving._checks import check_number
from repro.serving.telemetry import SPAN_FIELDS, TELEMETRY_FIELDS, TelemetrySeries

__all__ = [
    "TELEMETRY_FORMAT",
    "write_jsonl",
    "write_spans_jsonl",
    "to_prometheus",
    "render_dashboard",
]

#: format tag of the JSONL telemetry export's header line
TELEMETRY_FORMAT = "cogsys-serving-telemetry"

#: sparkline glyphs, lowest to highest
_SPARKS = "▁▂▃▄▅▆▇█"


def _dumps(obj) -> str:
    """Compact, key-order-preserving JSON for one export line."""
    return json.dumps(obj, separators=(",", ":"))


def write_jsonl(path, series: TelemetrySeries, source=None) -> Path:
    """Write the series as self-describing JSONL and return the path.

    Line 1 is a header carrying the format tag, window geometry, totals,
    the frozen :data:`~repro.serving.telemetry.TELEMETRY_FIELDS` list and
    the caller-supplied ``source`` dict (scenario name, seed, ...); every
    further line is one window row in schema order.
    """
    path = Path(path)
    header = {
        "format": TELEMETRY_FORMAT,
        "version": 1,
        "window_s": series.window_s,
        "num_chips": series.num_chips,
        "num_windows": series.num_windows,
        "requests": series.requests,
        "completed": series.completed,
        "fields": list(TELEMETRY_FIELDS),
        "source": dict(source or {}),
    }
    lines = [_dumps(header)]
    lines.extend(_dumps(row) for row in series.windows)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_spans_jsonl(path, spans, source=None) -> Path:
    """Write per-request lifecycle spans as self-describing JSONL."""
    path = Path(path)
    spans = tuple(spans)
    header = {
        "format": "cogsys-serving-spans",
        "version": 1,
        "num_spans": len(spans),
        "fields": list(SPAN_FIELDS),
        "source": dict(source or {}),
    }
    lines = [_dumps(header)]
    lines.extend(_dumps(span) for span in spans)
    path.write_text("\n".join(lines) + "\n")
    return path


def _prom_name(field: str) -> str:
    """Metric suffix for one telemetry field."""
    return field.replace("_rps", "_per_s")


_PROM_HELP = {
    "arrivals": "requests arriving in the window",
    "completions": "requests completing in the window",
    "batches": "batches dispatched in the window",
    "shed": "requests shed by admission control in the window",
    "arrival_rate_rps": "windowed arrival rate",
    "completion_rate_rps": "windowed completion rate",
    "p50_ms": "windowed p50 latency in milliseconds",
    "p95_ms": "windowed p95 latency in milliseconds",
    "p99_ms": "windowed p99 latency in milliseconds",
    "energy_j": "energy of batches dispatched in the window, joules",
    "utilization": "fleet busy fraction over the window",
    "queue_depth": "queued requests per chip at the window end",
    "inflight": "in-flight batches per chip at the window end",
}


def to_prometheus(series: TelemetrySeries, prefix: str = "repro_serving") -> str:
    """Render the series in Prometheus text exposition format.

    Every window contributes one sample per metric, timestamped at the
    window's end boundary in simulated milliseconds; per-chip fields
    (queue depth, in-flight) fan out over a ``chip`` label.  Windows
    without completions skip the latency-percentile samples.
    """
    scalar_fields = (
        "arrivals", "completions", "batches", "shed", "arrival_rate_rps",
        "completion_rate_rps", "p50_ms", "p95_ms", "p99_ms", "energy_j",
        "utilization",
    )
    out: list[str] = []
    for field in scalar_fields:
        name = f"{prefix}_{_prom_name(field)}"
        out.append(f"# HELP {name} {_PROM_HELP[field]}")
        out.append(f"# TYPE {name} gauge")
        for row in series.windows:
            value = row[field]
            if value is None:
                continue
            stamp = int(round(row["end_s"] * 1000.0))
            out.append(f"{name} {value} {stamp}")
    for field in ("queue_depth", "inflight"):
        name = f"{prefix}_{_prom_name(field)}"
        out.append(f"# HELP {name} {_PROM_HELP[field]}")
        out.append(f"# TYPE {name} gauge")
        for row in series.windows:
            stamp = int(round(row["end_s"] * 1000.0))
            for chip, value in enumerate(row[field]):
                out.append(f'{name}{{chip="{chip}"}} {value} {stamp}')
    return "\n".join(out) + "\n"


def _sparkline(values, width: int) -> str:
    """Scale a value sequence into a fixed-width unicode sparkline.

    ``None`` samples (e.g. percentiles of empty windows) count as zero;
    series longer than ``width`` downsample by per-bucket maximum so
    spikes stay visible.
    """
    cleaned = [0.0 if value is None else float(value) for value in values]
    if not cleaned:
        return ""
    if len(cleaned) > width:
        buckets = []
        step = len(cleaned) / width
        for i in range(width):
            lo = int(i * step)
            hi = max(int((i + 1) * step), lo + 1)
            buckets.append(max(cleaned[lo:hi]))
        cleaned = buckets
    peak = max(cleaned)
    if peak <= 0:
        return _SPARKS[0] * len(cleaned)
    levels = len(_SPARKS) - 1
    return "".join(
        _SPARKS[int(round(value / peak * levels))] for value in cleaned
    )


def _fmt(value: float) -> str:
    """Compact human number formatting for the dashboard."""
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    if value >= 100:
        return f"{value:.0f}"
    return f"{value:.2f}".rstrip("0").rstrip(".")


def render_dashboard(series: TelemetrySeries, title: str | None = None,
                     width: int = 64) -> str:
    """Render the terminal sparkline dashboard over the windowed series."""
    check_number("width", width, low=0, strict=True, integer=True)
    if series.num_windows == 0:
        raise ServingError("cannot render a dashboard over an empty series")
    window_ms = series.window_s * 1000.0
    head = title or "Serving telemetry"
    lines = [
        f"## {head} — {series.num_windows} windows × {window_ms:g} ms",
        "",
    ]
    queue_total = [sum(row["queue_depth"]) for row in series.windows]
    inflight_total = [sum(row["inflight"]) for row in series.windows]
    panels = (
        ("arrivals/s", series.column("arrival_rate_rps"), "/s"),
        ("completions/s", series.column("completion_rate_rps"), "/s"),
        ("p99 latency", series.column("p99_ms"), " ms"),
        ("utilization", series.column("utilization"), ""),
        ("queue depth", queue_total, ""),
        ("in-flight", inflight_total, ""),
        ("energy/window", series.column("energy_j"), " J"),
    )
    for label, values, unit in panels:
        peak = max(0.0 if value is None else float(value) for value in values)
        lines.append(
            f"{label:<14} {_sparkline(values, width)}  peak {_fmt(peak)}{unit}"
        )
    total_energy = sum(series.column("energy_j"))
    lines.extend([
        "",
        f"requests {series.requests} · completed {series.completed} · "
        f"batches {sum(series.column('batches'))} · "
        f"chips {series.num_chips} · energy {_fmt(total_energy)} J",
    ])
    return "\n".join(lines) + "\n"
