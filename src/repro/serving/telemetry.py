"""Windowed time-series telemetry over the serving event core.

The simulator's results are end-of-run aggregates; this module adds the
*over time* view: the run is cut into fixed simulated-time windows
(anchored at ``t = 0``, width ``window_s``) and each window reports
arrival/completion/batch/shed counts and rates, windowed latency
percentiles, energy, fleet utilization, and per-chip queue depth /
in-flight state at the window boundary — the sensor series a closed-loop
controller (or a dashboard) consumes.

One kernel builds every row: :func:`_series_from_parts` turns event
columns (the window of every arrival, per-request latency/chip columns,
per-batch occupancy/energy columns and optional shed instants) into the
rows of a ``[first, stop)`` window range.  Its columns come from a run's
batch log (:class:`~repro.serving.simulator._BatchLog`: per batch chip,
dispatch, finish, size and workload code; per request each batch's
members), through :func:`_log_columns`.  Two feeds reach it:

* **whole runs** — :func:`_series_from_emits` reads the batch log of a
  finished run: the one the simulator's whole-trace driver decodes for
  ``run()``, controlled and session runs alike (the event core is never
  touched, so telemetry-off runs pay nothing), and the one the sharded
  merge concatenates from its components.  :func:`derive_series` (through
  :func:`_series_from_columns`) recovers a log from the record columns
  of a finished run without chaos or a controller;
* **streams** — :class:`TelemetryCollector` takes each batch log
  ``run_stream()`` decodes as the run goes (the same logs feed the run's
  latency arrays) and sends each prefix of provably complete windows
  through the kernel, carrying the per-chip cumulative counts across
  flushes, so multi-million request replays keep bounded memory.

Both feeds keep one contract: every offered request counts once under
``arrivals``, in its arrival window, whether it completed, was lost or
was shed; every shed request counts once under ``shed``, in the window
of the instant the core shed it (its arrival for admission control, the
failure instant for a failed chip's queue, the horizon for a queue
stranded on a chip that never recovers), clamped into the series.

All floating-point reductions happen per window over *sorted* value
multisets inside :func:`_window_row` and window indices use the same
``t // window_s`` floor division everywhere, so any split of a run into
flushes yields the same bytes as one pass.  Per-batch energy comes from
the same memoized ``model.energy_joules(workload, batch_size)`` call the
event core uses; a batch a chaos straggler or power cap slowed carries
the scaled energy the core charged, which the core reports by emission
index only when telemetry is on.

Per-request lifecycle *spans* (arrive -> dispatch -> complete with
queue-wait and service segments) are derived from the existing record
columns by :func:`request_spans`; nothing is added to the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.simulator import _BatchLog

__all__ = [
    "DEFAULT_WINDOW_S",
    "TELEMETRY_FIELDS",
    "SPAN_FIELDS",
    "TelemetrySeries",
    "TelemetryCollector",
    "derive_series",
    "request_spans",
]

#: default telemetry window width in simulated seconds (100 ms)
DEFAULT_WINDOW_S = 0.1

#: frozen per-window schema, in emission order — the JSONL exporter and
#: the CI schema check both validate against exactly this list
TELEMETRY_FIELDS = (
    "window",
    "start_s",
    "end_s",
    "arrivals",
    "completions",
    "batches",
    "shed",
    "arrival_rate_rps",
    "completion_rate_rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "energy_j",
    "utilization",
    "queue_depth",
    "inflight",
)

#: per-request lifecycle span schema (see :func:`request_spans`)
SPAN_FIELDS = (
    "request_id",
    "workload",
    "chip",
    "arrival_s",
    "dispatch_s",
    "finish_s",
    "queue_wait_s",
    "service_s",
    "latency_s",
    "batch_size",
)

#: kernel columns with one entry per completed request / per batch
_REQUEST_COLUMNS = ("latency", "aw", "dw", "fw", "req_chip")
_BATCH_COLUMNS = ("b_chip", "b_disp", "b_fin", "b_dw", "b_fw", "b_energy")
_FLOAT_COLUMNS = frozenset(("latency", "b_disp", "b_fin", "b_energy"))

#: window indices are int64: quotients must stay below this magnitude
_INDEX_LIMIT = float(2**63)

#: most windows one series may cut a run into; every window costs a row
#: and a slot in each per-window histogram, so a narrower window is a
#: typed error before any of them is allocated
MAX_WINDOWS = 1_000_000


@dataclass(frozen=True)
class TelemetrySeries:
    """The windowed time series one serving run produced.

    ``windows`` holds one dict per window (consecutive, covering the
    first arrival through the horizon) whose keys are exactly
    :data:`TELEMETRY_FIELDS`.  ``queue_depth`` and ``inflight`` are
    per-chip integer lists sampled at the window's end boundary;
    ``arrivals`` counts every request offered in the window (completed,
    lost or shed) and ``shed`` the requests shed in it (see the module
    docstring); latency percentiles are ``None`` in windows with no
    completions.
    """

    window_s: float
    num_chips: int
    windows: tuple[dict, ...]

    @property
    def num_windows(self) -> int:
        """Number of windows in the series."""
        return len(self.windows)

    @property
    def requests(self) -> int:
        """Total arrivals across all windows."""
        return sum(row["arrivals"] for row in self.windows)

    @property
    def completed(self) -> int:
        """Total completions across all windows."""
        return sum(row["completions"] for row in self.windows)

    def column(self, name: str) -> list:
        """One field of every window, in window order."""
        if name not in TELEMETRY_FIELDS:
            raise ServingError(
                f"unknown telemetry field '{name}'; "
                f"choose from {list(TELEMETRY_FIELDS)}"
            )
        return [row[name] for row in self.windows]


def _quantile(sorted_values: np.ndarray, q: float) -> float:
    """Linear-interpolated quantile of an already-sorted array.

    Same formula (and same ``gamma >= 0.5`` lerp branch) as
    ``np.percentile``'s default method, inlined because the per-call
    overhead of ``np.percentile`` dominated per-window finalization —
    windows hold tens of latencies, and a run can have thousands of
    windows.
    """
    n = sorted_values.shape[0]
    pos = q * (n - 1)
    lo = int(pos)
    gamma = pos - lo
    a = float(sorted_values[lo])
    if gamma == 0.0:
        return a
    b = float(sorted_values[lo + 1 if lo + 1 < n else n - 1])
    diff = b - a
    if gamma < 0.5:
        return a + gamma * diff
    return b - diff * (1.0 - gamma)


def _window_row(
    window: int,
    window_s: float,
    num_chips: int,
    arrivals: int,
    completions: int,
    batches: int,
    shed: int,
    latencies,
    energies,
    busy,
    queue_depth,
    inflight,
) -> dict:
    """Finalize one window's raw accumulators into its schema row.

    All float reductions sort first, so the same value *multisets* in any
    order emit identical bytes.
    """
    lat = np.sort(np.asarray(latencies, dtype=float))
    if lat.size:
        p50 = round(_quantile(lat, 0.5) * 1000.0, 4)
        p95 = round(_quantile(lat, 0.95) * 1000.0, 4)
        p99 = round(_quantile(lat, 0.99) * 1000.0, 4)
    else:
        p50 = p95 = p99 = None
    energy_j = float(np.sort(np.asarray(energies, dtype=float)).sum())
    busy_s = float(np.sort(np.asarray(busy, dtype=float)).sum())
    capacity_s = window_s * num_chips
    return {
        "window": int(window),
        "start_s": round(window * window_s, 9),
        "end_s": round((window + 1) * window_s, 9),
        "arrivals": int(arrivals),
        "completions": int(completions),
        "batches": int(batches),
        "shed": int(shed),
        "arrival_rate_rps": round(arrivals / window_s, 3),
        "completion_rate_rps": round(completions / window_s, 3),
        "p50_ms": p50,
        "p95_ms": p95,
        "p99_ms": p99,
        "energy_j": round(energy_j, 9),
        "utilization": round(min(1.0, busy_s / capacity_s), 6),
        "queue_depth": [int(v) for v in queue_depth],
        "inflight": [int(v) for v in inflight],
    }


def _energy_lookup(chip_models):
    """Memoized ``(chip, workload, batch_size) -> joules`` closure.

    Wraps the exact ``model.energy_joules`` call the event core's hoisted
    service table uses, so the telemetry energy column sums the same
    per-batch floats the run's ``energy_joules`` total did.
    """
    memo: dict[tuple, float] = {}

    def energy_of(chip: int, workload: str, size: int) -> float:
        key = (chip, workload, size)
        value = memo.get(key)
        if value is None:
            value = float(chip_models[chip].energy_joules(workload, size))
            memo[key] = value
        return value

    return energy_of


def _check_window(window_s) -> float:
    """Validate and normalize a window width."""
    window_s = float(window_s)
    if not (window_s > 0 and math.isfinite(window_s)):
        raise ServingError(
            f"telemetry window must be positive and finite, got {window_s}"
        )
    return window_s


def _window_index(times, window_s: float) -> np.ndarray:
    """``times // window_s`` as int64 window indices.

    A window far narrower than the run's time scale would wrap the int64
    cast around; that is a typed error instead.
    """
    quotient = np.floor_divide(times, window_s)
    if quotient.size and not (
        quotient.min() >= -_INDEX_LIMIT and quotient.max() < _INDEX_LIMIT
    ):
        raise ServingError(
            f"telemetry window {window_s!r} s is too narrow for this run: "
            "window indices overflow int64"
        )
    return quotient.astype(np.int64)


def _last_window(horizon_s: float, window_s: float, *windows) -> int:
    """A series' last window: the horizon's, or any later event's."""
    return max(
        [int(_window_index(np.float64(horizon_s), window_s))]
        + [int(widx.max()) for widx in windows if widx.size]
    )


def _cat(parts: list, dtype) -> np.ndarray:
    """Concatenate column parts (no copy for one part; typed when none)."""
    if len(parts) == 1:
        return parts[0]
    if parts:
        return np.concatenate(parts)
    return np.empty(0, dtype=dtype)


def _check_window_count(n_win: int, window_s: float) -> None:
    """Reject a window span longer than :data:`MAX_WINDOWS`."""
    if n_win > MAX_WINDOWS:
        raise ServingError(
            f"telemetry window {window_s!r} s cuts this run into {n_win} "
            f"windows; at most {MAX_WINDOWS} are allowed"
        )


def _hist(widx: np.ndarray, first: int, n_win: int) -> np.ndarray:
    """Counts per window of ``[first, first + n_win)``; others are ignored."""
    clipped = np.clip(widx - (first - 1), 0, n_win + 1)
    return np.bincount(clipped, minlength=n_win + 2)[1:-1]


def _window_slices(
    widx: np.ndarray, values: np.ndarray, first: int, n_win: int
) -> list:
    """Group ``values`` into per-window arrays of ``[first, first + n_win)``."""
    sorter = np.argsort(widx, kind="stable")
    return _sorted_slices(widx[sorter], values[sorter], first, n_win)


def _sorted_slices(
    sorted_w: np.ndarray, sorted_v: np.ndarray, first: int, n_win: int
) -> list:
    """Per-window views of values already ordered by window index."""
    bounds = np.searchsorted(sorted_w, np.arange(first, first + n_win + 1))
    return [sorted_v[bounds[i]:bounds[i + 1]] for i in range(n_win)]


def _batch_energy(b_chip, b_codes, b_size, names, energy_of) -> np.ndarray:
    """Per-batch energy via memoized model lookups over unique triples.

    Collapses the batches to unique ``(chip, workload, batch size)``
    composite keys so the python-level ``energy_of`` call count is the
    number of distinct service-table cells, not the number of batches.
    """
    if not b_size.size:
        return np.empty(0, dtype=float)
    n_names = len(names)
    size_span = int(b_size.max()) + 1
    b_key = (b_chip * n_names + b_codes) * size_span + b_size
    max_key = int(b_key.max())
    if max_key < (1 << 20):
        # The key space (chips x workloads x sizes) is tiny in practice:
        # resolve through a dense table, skipping np.unique's O(n log n)
        # sort of the per-batch keys.
        table = np.zeros(max_key + 1, dtype=float)
        present = np.nonzero(np.bincount(b_key, minlength=max_key + 1))[0]
        for key in present.tolist():
            batch_size = key % size_span
            rest = key // size_span
            table[key] = energy_of(
                int(rest // n_names), names[int(rest % n_names)],
                int(batch_size),
            )
        return table[b_key]
    uniq_keys, inverse = np.unique(b_key, return_inverse=True)
    uniq_energy = np.empty(uniq_keys.size, dtype=float)
    for i, key in enumerate(uniq_keys.tolist()):
        batch_size = key % size_span
        rest = key // size_span
        uniq_energy[i] = energy_of(
            int(rest // n_names), names[int(rest % n_names)], int(batch_size)
        )
    return uniq_energy[inverse]


def _shed_hist(shed_s, window_s: float, first: int, n_win: int) -> list:
    """Shed instants per window of ``[first, first + n_win)``, clamped in."""
    if shed_s is None or not len(shed_s):
        return [0] * n_win
    widx = _window_index(np.asarray(shed_s, dtype=float), window_s)
    return _hist(np.clip(widx, first, first + n_win - 1), first, n_win).tolist()


def _series_from_parts(
    *,
    arrival_w: np.ndarray,
    latency: np.ndarray,
    aw: np.ndarray,
    dw: np.ndarray,
    fw: np.ndarray,
    req_chip: np.ndarray,
    b_chip: np.ndarray,
    b_disp: np.ndarray,
    b_fin: np.ndarray,
    b_dw: np.ndarray,
    b_fw: np.ndarray,
    b_energy: np.ndarray,
    num_chips: int,
    window_s: float,
    first: int,
    stop: int,
    carry: tuple | None = None,
    shed_s: np.ndarray | None = None,
) -> list[dict]:
    """The windowing kernel: the rows of windows ``[first, stop)``.

    ``arrival_w`` holds the window of every arrival, served or not (lost
    and shed requests count as arrivals and contribute nothing else).
    The per-request columns — latency, chip and arrival/dispatch/finish
    *window indices* — cover completed requests; the per-batch columns
    carry occupancy and energy.  Rows may come in *any* order and may
    reach outside the range: counts are range-clipped ``bincount``
    histograms and float multisets are grouped per window and reduced
    inside :func:`_window_row`, which sorts first.  That is what lets
    ``run()``, record derivation, the sharded merge and the streaming
    collector's prefix flushes emit the same bytes.

    ``carry`` holds the per-chip ``(queue_depth, inflight)`` at the end
    of window ``first - 1`` (zeros when omitted), so a flush can pick up
    where the previous one stopped.  ``shed_s`` holds shed instants;
    each counts into its window, clamped into the range.
    """
    n_win = stop - first
    _check_window_count(n_win, window_s)
    arrived = _hist(arrival_w, first, n_win).tolist()
    finished = _hist(fw, first, n_win).tolist()
    batches = _hist(b_dw, first, n_win).tolist()
    shed = _shed_hist(shed_s, window_s, first, n_win)

    # Latency multiset of each window's completions.
    lat_groups = _window_slices(fw, latency, first, n_win)
    # Energy and busy are both keyed by the batch dispatch window, so one
    # stable argsort serves both groupings (busy falls back to its own
    # sort only when a window-spanning batch rewrites its key list).
    b_sorter = np.argsort(b_dw, kind="stable")
    b_dw_sorted = b_dw[b_sorter]
    energy_groups = _sorted_slices(
        b_dw_sorted, b_energy[b_sorter], first, n_win
    )

    # Busy overlap: batches inside one window contribute finish - dispatch;
    # a window-spanning batch is split over the in-range windows it covers.
    service = b_fin - b_disp
    same = b_dw == b_fw
    spanning = np.nonzero(~same)[0]
    if spanning.size:
        span_w: list[int] = []
        span_v: list[float] = []
        for i in spanning.tolist():
            dispatch_s = float(b_disp[i])
            finish_s = float(b_fin[i])
            for w in range(max(int(b_dw[i]), first),
                           min(int(b_fw[i]), stop - 1) + 1):
                start = w * window_s
                end = (w + 1) * window_s
                lo = dispatch_s if dispatch_s > start else start
                hi = finish_s if finish_s < end else end
                span_w.append(w)
                span_v.append(hi - lo)
        busy_groups = _window_slices(
            np.concatenate([b_dw[same], np.asarray(span_w, dtype=np.int64)]),
            np.concatenate([service[same], np.asarray(span_v, dtype=float)]),
            first, n_win,
        )
    else:
        busy_groups = _sorted_slices(
            b_dw_sorted, service[b_sorter], first, n_win
        )

    # Per-chip boundary state: cumulative routed/dispatched requests give
    # queue depth, cumulative started/finished batches give in-flight.
    # (chip, window) histograms via one bincount over a flat composite
    # index, clipped like _hist — np.add.at on 2-D targets is an order of
    # magnitude slower.
    span = n_win + 2

    def chip_hist(chips, widx):
        clipped = np.clip(widx - (first - 1), 0, n_win + 1)
        return np.bincount(
            chips * span + clipped, minlength=num_chips * span
        ).reshape(num_chips, span)[:, 1:-1]

    queue_depth = (
        chip_hist(req_chip, aw).cumsum(axis=1)
        - chip_hist(req_chip, dw).cumsum(axis=1)
    )
    inflight = (
        chip_hist(b_chip, b_dw).cumsum(axis=1)
        - chip_hist(b_chip, b_fw).cumsum(axis=1)
    )
    if carry is not None:
        queue_depth += np.asarray(carry[0], dtype=np.int64)[:, None]
        inflight += np.asarray(carry[1], dtype=np.int64)[:, None]

    # One C-level transpose+tolist per matrix instead of one ndarray
    # slice + tolist per window.
    depth_cols = queue_depth.T.tolist()
    inflight_cols = inflight.T.tolist()
    return [
        _window_row(
            first + i, window_s, num_chips,
            arrived[i], finished[i], batches[i], shed[i],
            lat_groups[i], energy_groups[i], busy_groups[i],
            depth_cols[i], inflight_cols[i],
        )
        for i in range(n_win)
    ]


def _whole_series(
    columns: dict,
    arrival_w: np.ndarray,
    num_chips: int,
    window_s: float,
    horizon_s: float,
    first_arrival_s: float,
    shed_s: np.ndarray | None = None,
) -> TelemetrySeries:
    """Every window of a finished run: first arrival through the horizon."""
    if not arrival_w.size:
        return TelemetrySeries(window_s, int(num_chips), ())
    rows = _series_from_parts(
        **columns,
        arrival_w=arrival_w,
        num_chips=num_chips,
        window_s=window_s,
        first=int(_window_index(np.float64(first_arrival_s), window_s)),
        stop=_last_window(horizon_s, window_s, arrival_w, columns["fw"]) + 1,
        shed_s=shed_s,
    )
    return TelemetrySeries(window_s, int(num_chips), tuple(rows))


def _log_columns(
    log, names, energy_of, window_s, scaled_energy=None, first_batch=0
) -> dict:
    """The kernel columns of a :class:`~repro.serving.simulator._BatchLog`.

    Batch columns come straight from the log; request columns spread them
    over the members with ``np.repeat`` (a batch's size is its member
    count).  ``scaled_energy`` maps a batch's emission index to the
    energy of a batch a chaos service multiplier scaled; ``log`` holds
    the batches emitted from index ``first_batch`` on, including every
    one still in the dict.  Those batches take the scaled value instead
    of the base lookup, and the dict is emptied.
    """
    size = log.size
    b_dw = _window_index(log.dispatch, window_s)
    b_fw = _window_index(log.finish, window_s)
    b_energy = _batch_energy(log.chip, log.code, size, names, energy_of)
    if scaled_energy:
        for index, energy_j in scaled_energy.items():
            b_energy[index - first_batch] = energy_j
        scaled_energy.clear()
    return {
        "latency": np.repeat(log.finish, size) - log.arrival,
        "aw": _window_index(log.arrival, window_s),
        "dw": np.repeat(b_dw, size),
        "fw": np.repeat(b_fw, size),
        "req_chip": np.repeat(log.chip, size),
        "b_chip": log.chip,
        "b_disp": log.dispatch,
        "b_fin": log.finish,
        "b_dw": b_dw,
        "b_fw": b_fw,
        "b_energy": b_energy,
    }


def _series_from_emits(
    log,
    names: tuple[str, ...],
    num_chips: int,
    energy_of,
    window_s: float,
    horizon_s: float,
    first_arrival_s: float,
    dropped_arrivals=None,
    shed_s=None,
    scaled_energy=None,
) -> TelemetrySeries:
    """Windowed series of a finished run's batch log.

    ``log`` is the run's :class:`~repro.serving.simulator._BatchLog`,
    whose codes index ``names``.  ``dropped_arrivals`` holds the arrival
    instants of the requests the run lost or shed: they join the arrival
    column and nothing else.  ``shed_s`` holds the instant each shed
    request was shed, and ``scaled_energy`` the chaos-scaled batch
    energies (see :func:`_log_columns`).
    """
    window_s = _check_window(window_s)
    columns = _log_columns(log, names, energy_of, window_s, scaled_energy)
    arrival_w = columns["aw"]
    if dropped_arrivals is not None and len(dropped_arrivals):
        arrival_w = np.concatenate([
            arrival_w,
            _window_index(np.asarray(dropped_arrivals, dtype=float), window_s),
        ])
    return _whole_series(
        columns, arrival_w, num_chips, window_s, horizon_s, first_arrival_s,
        shed_s,
    )


def _series_from_columns(
    *,
    arrival: np.ndarray,
    dispatch: np.ndarray,
    finish: np.ndarray,
    chip: np.ndarray,
    size: np.ndarray,
    codes: np.ndarray,
    names: tuple[str, ...],
    num_chips: int,
    energy_of,
    window_s: float,
    horizon_s: float,
    first_arrival_s: float,
) -> TelemetrySeries:
    """Windowed series of full per-request columns (:func:`derive_series`).

    Batches are recovered from the rows: a chip may dispatch several
    batches at one instant (zero service time is legal), so rows group by
    ``(chip, dispatch, code, size)`` and a group of ``rows`` rows holds
    ``rows // size`` batches.  The recovered batch log goes through
    :func:`_series_from_emits`.
    """
    arrival = np.ascontiguousarray(arrival, dtype=float)
    dispatch = np.ascontiguousarray(dispatch, dtype=float)
    finish = np.ascontiguousarray(finish, dtype=float)
    chip = np.ascontiguousarray(chip, dtype=np.int64)
    size = np.ascontiguousarray(size, dtype=np.int64)
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    keys = (size, codes, dispatch, chip)
    order = np.lexsort(keys)
    new_group = np.ones(order.size, dtype=bool)
    new_group[1:] = np.any(
        [key[order[1:]] != key[order[:-1]] for key in keys], axis=0
    )
    starts = np.flatnonzero(new_group)
    first = order[starts]
    rows = np.diff(np.append(starts, order.size))
    batch = np.repeat(first, rows // size[first])
    log = _BatchLog(
        chip[batch], dispatch[batch], finish[batch], size[batch],
        codes[batch], arrival[order], None,
    )
    return _series_from_emits(
        log, names, num_chips, energy_of, window_s, horizon_s,
        first_arrival_s,
    )


def derive_series(result, window_s, chip_models) -> TelemetrySeries:
    """Windowed series derived post-hoc from a full-trace ``ServingResult``.

    ``chip_models`` are the per-chip service oracles the run used
    (``ServingSimulator._chip_models()``); the event core itself is never
    re-run, so deriving telemetry after the fact costs a single
    vectorized pass over the record columns, which hold completed
    requests only.

    Chaos and controlled runs are rejected: their records hold neither
    the requests they lost or shed nor the scaled energy of slowed
    batches, so only the series the run itself collected
    (``telemetry_window_s``) is right for them.
    """
    for key in ("chaos", "controller"):
        if key in result.provenance:
            raise ServingError(
                f"derive_series cannot rebuild a {key} run's telemetry from "
                "its records; run it with telemetry_window_s instead"
            )
    records = result.records
    window_s = _check_window(window_s)
    if not records:
        return TelemetrySeries(window_s, result.num_chips, ())
    return _series_from_columns(
        arrival=records.arrival,
        dispatch=records.dispatch,
        finish=records.finish,
        chip=records.chip,
        size=records.size,
        codes=records.codes,
        names=records.names,
        num_chips=result.num_chips,
        energy_of=_energy_lookup(chip_models),
        window_s=window_s,
        horizon_s=result.horizon_s,
        first_arrival_s=result.first_arrival_s,
    )


class TelemetryCollector:
    """The streaming feed of the windowing kernel, for ``run_stream``.

    Takes what ``run()`` takes — the run's batches, as the batch logs
    ``run_stream`` decodes as the run goes (:meth:`on_log`) — plus
    the fed arrival chunks (:meth:`on_arrivals`) and the arrivals the
    event core loses or sheds (:meth:`on_drop`).  A window is complete
    once the feed has passed it and every request that arrived in it or
    earlier has emitted or been dropped: every batch dispatched by then
    has emitted too, so all of the window's counts, multisets and boundary
    state are known.  Each flush sends the complete prefix of windows through
    :func:`_series_from_parts` and keeps only the columns later windows
    still need, so memory is bounded by the open windows.

    The finished series is byte-identical to the whole-trace series of
    the same run (``ServingSimulator.run(telemetry_window_s=...)``).
    """

    def __init__(self, window_s, num_chips, chip_models, workload_names):
        self.window_s = _check_window(window_s)
        self.num_chips = int(num_chips)
        self._names = tuple(workload_names)
        self._energy_of = _energy_lookup(list(chip_models))
        #: ``batch index -> energy_j`` of chaos-scaled batches, the index
        #: counting the run's emitted batches; filled by the event core as
        #: it emits them and consumed by the next :meth:`on_log`
        self.scaled_energy: dict[int, float] = {}
        self._batches = 0        # batches taken so far
        self._parts: list[dict] = []     # kernel columns still needed
        self._fed: list[np.ndarray] = []      # arrival windows >= _next
        self._dropped: list[np.ndarray] = []  # dropped ones, likewise
        self._fed_idx = -1       # window of the newest fed arrival
        self._next: int | None = None  # first window not yet flushed
        self._rows: list[dict] = []

    def on_arrivals(self, arrivals) -> None:
        """Record one fed columnar chunk's arrival times (sorted)."""
        widx = _window_index(np.asarray(arrivals, dtype=float), self.window_s)
        if widx.size == 0:
            return
        if self._next is None:
            self._next = int(widx[0])
        self._fed.append(widx)
        self._fed_idx = int(widx[-1])
        self._flush()

    def on_log(self, log) -> None:
        """Record the batches emitted since the last log, in emission order."""
        self._parts.append(_log_columns(
            log, self._names, self._energy_of, self.window_s,
            self.scaled_energy, self._batches,
        ))
        self._batches += log.size.size

    def on_drop(self, arrivals) -> None:
        """Record the arrival instants of requests lost or shed."""
        self._dropped.append(
            _window_index(np.asarray(arrivals, dtype=float), self.window_s)
        )

    def _complete_prefix(self, first: int, fed: np.ndarray) -> int:
        """How many windows from ``first`` on are complete."""
        n_win = self._fed_idx - first
        if n_win <= 0:
            return 0
        _check_window_count(n_win, self.window_s)
        # An arrival not yet emitted or dropped (queued or in flight) holds
        # its window and every later one open.
        owed = _hist(fed, first, n_win)
        for widx in [part["aw"] for part in self._parts] + self._dropped:
            owed -= _hist(widx, first, n_win)
        held = np.flatnonzero(np.cumsum(owed))
        return int(held[0]) if held.size else n_win

    def _flush(self, horizon_s: float | None = None) -> None:
        """Send every complete window (all of them given the horizon)."""
        if self._next is None:
            return
        first = self._next
        fed = _cat(self._fed, np.int64)
        if horizon_s is None:
            stop = first + self._complete_prefix(first, fed)
        else:
            stop = 1 + _last_window(
                horizon_s, self.window_s, fed,
                *(part["fw"] for part in self._parts),
            )
        if stop > first:
            columns = {
                key: _cat([part[key] for part in self._parts],
                          float if key in _FLOAT_COLUMNS else np.int64)
                for key in _REQUEST_COLUMNS + _BATCH_COLUMNS
            }
            self._rows.extend(_series_from_parts(
                **columns,
                arrival_w=fed,
                num_chips=self.num_chips,
                window_s=self.window_s,
                first=first,
                stop=stop,
                carry=(
                    (self._rows[-1]["queue_depth"], self._rows[-1]["inflight"])
                    if self._rows else None
                ),
            ))
            self._next = stop
            # Keep what windows from ``stop`` on still need: the requests
            # and batches finishing there, and their arrival windows.
            keep_request = columns["fw"] >= stop
            keep_batch = columns["b_fw"] >= stop
            self._parts = [{
                key: values[
                    keep_request if key in _REQUEST_COLUMNS else keep_batch
                ]
                for key, values in columns.items()
            }]
            self._fed = [fed[fed >= stop]]
            dropped = _cat(self._dropped, np.int64)
            self._dropped = [dropped[dropped >= stop]]

    def finalize(self, horizon_s: float, shed_s=None) -> TelemetrySeries:
        """Flush all remaining windows and return the finished series.

        ``shed_s`` (each shed request's shed instant) joins the finished
        rows only here: a stranded queue is shed at the horizon, which may
        fall in a window flushed long ago.
        """
        self._flush(horizon_s)
        rows = self._rows
        if rows:
            shed = _shed_hist(shed_s, self.window_s, rows[0]["window"], len(rows))
            for row, count in zip(rows, shed):
                row["shed"] += count
        return TelemetrySeries(self.window_s, self.num_chips, tuple(rows))


def request_spans(result) -> tuple[dict, ...]:
    """Per-request lifecycle spans of a full-trace run.

    One dict per request (keys: :data:`SPAN_FIELDS`) splitting its life
    into the queue-wait segment (arrival -> dispatch) and the service
    segment (dispatch -> finish), in request-id order.  Needs the
    per-request records only ``ServingSimulator.run`` keeps; streamed
    results hold aggregates and are rejected.
    """
    records = getattr(result, "records", None)
    if records is None:
        raise ServingError(
            "request spans need per-request records; use "
            "ServingSimulator.run() (run_stream keeps only aggregates)"
        )
    names = records.names
    return tuple(
        {
            "request_id": request_id,
            "workload": names[code],
            "chip": chip,
            "arrival_s": arrival_s,
            "dispatch_s": dispatch_s,
            "finish_s": finish_s,
            "queue_wait_s": dispatch_s - arrival_s,
            "service_s": finish_s - dispatch_s,
            "latency_s": finish_s - arrival_s,
            "batch_size": size,
        }
        for request_id, code, chip, arrival_s, dispatch_s, finish_s, size
        in zip(
            records.ids.tolist(), records.codes.tolist(),
            records.chip.tolist(), records.arrival.tolist(),
            records.dispatch.tolist(), records.finish.tolist(),
            records.size.tolist(),
        )
    )
