"""Recordable, replayable request traces for the serving simulator.

A *request trace* is a JSONL file: one fixed-width header line of
metadata, then one compact ``[request_id, workload, arrival_s]`` line per
request, sorted by ``(arrival_s, request_id)`` with strictly increasing
ids.  The format is deliberately boring — greppable, diffable, appendable
— and built for scale in both directions:

* **Recording** streams requests to disk as they are produced (a recorder
  over a long arrival process never holds the full stream), rewriting the
  space-padded header in place once the totals are known.
* **Replaying** streams the file back as columnar chunks
  (:meth:`RequestTrace.iter_chunks`), which
  :meth:`~repro.serving.simulator.ServingSimulator.run_stream` consumes in
  bounded memory — a multi-million-request trace never materializes as one
  Python list.

Determinism: a trace pins the exact arrival stream, so replaying it
through the deterministic event core reproduces the identical result on
every run — the serving analogue of the repo-wide "same seed, same
numbers" rule, and the workload-side half of what trace-driven cluster
evaluation needs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServingError
from repro.serving.simulator import (
    DEFAULT_CHUNK_SIZE,
    ServingSimulator,
    StreamedServingResult,
)
from repro.serving.traffic import SEED_STRIDE, ArrivalProcess, Request
from repro.workloads.registry import WORKLOAD_BUILDERS

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceInfo",
    "RequestTrace",
    "write_trace",
    "record_process",
    "record_scenario",
    "replay_trace",
]

#: the ``format`` field every trace header carries
TRACE_FORMAT = "cogsys-request-trace"

#: current trace schema version
TRACE_VERSION = 1

#: on-disk width of the (space-padded) header line, newline included —
#: fixed so a streaming writer can rewrite the totals in place afterwards
_HEADER_WIDTH = 512



@dataclass(frozen=True)
class TraceInfo:
    """Parsed trace header: identity, size and provenance of a trace."""

    path: str
    version: int
    num_requests: int
    workloads: tuple[str, ...]
    duration_s: float
    source: Mapping[str, object]


def _pad_header(payload: dict) -> bytes:
    """The header line, space-padded to its fixed on-disk width."""
    line = json.dumps(payload, sort_keys=True)
    if len(line) >= _HEADER_WIDTH:
        raise ServingError(
            f"trace header exceeds {_HEADER_WIDTH} bytes; trim the source "
            "metadata"
        )
    return (line + " " * (_HEADER_WIDTH - 1 - len(line)) + "\n").encode("ascii")


def write_trace(
    path: str | Path,
    requests: Iterable[Request],
    source: Mapping[str, object] | None = None,
) -> TraceInfo:
    """Stream ``requests`` to a trace file at ``path``.

    ``requests`` must arrive sorted by ``(arrival_s, request_id)`` with
    strictly increasing ids (every generator in
    :mod:`repro.serving.traffic` satisfies this); the input is only
    iterated once and never buffered, so recording scales to arbitrarily
    long streams.  ``source`` is free-form provenance stored in the header
    (e.g. the scenario name and seed that produced the stream).
    """
    path = Path(path)
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_requests": 0,
        "duration_s": 0.0,
        "workloads": [],
        "source": dict(source or {}),
    }
    count = 0
    last_arrival = 0.0
    prev_key = (-float("inf"), -1)
    workloads: set[str] = set()
    with path.open("wb") as handle:
        handle.write(_pad_header(header))
        for request in requests:
            key = (request.arrival_s, request.request_id)
            if key <= prev_key or request.request_id <= prev_key[1]:
                raise ServingError(
                    "trace recording requires requests sorted by "
                    "(arrival_s, request_id) with strictly increasing ids; "
                    f"violated near request {request.request_id}"
                )
            prev_key = key
            workloads.add(request.workload)
            handle.write(
                json.dumps(
                    [request.request_id, request.workload, request.arrival_s]
                ).encode("ascii")
            )
            handle.write(b"\n")
            count += 1
            last_arrival = request.arrival_s
        if not count:
            raise ServingError("refusing to record an empty request trace")
        header.update(
            num_requests=count,
            duration_s=last_arrival,
            workloads=sorted(workloads),
        )
        handle.seek(0)
        handle.write(_pad_header(header))
    return read_header(path)


def read_header(path: str | Path) -> TraceInfo:
    """Parse and validate the header line of the trace at ``path``."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            raw = handle.read(_HEADER_WIDTH)
    except OSError as error:
        raise ServingError(f"cannot read trace '{path}': {error}") from None
    try:
        header = json.loads(raw.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ServingError(
            f"'{path}' is not a request trace (unparseable header line)"
        ) from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ServingError(
            f"'{path}' is not a request trace (missing '{TRACE_FORMAT}' marker)"
        )
    if header.get("version") != TRACE_VERSION:
        raise ServingError(
            f"trace '{path}' has version {header.get('version')}; this build "
            f"reads version {TRACE_VERSION}"
        )
    workloads = tuple(header.get("workloads") or ())
    unknown = set(workloads) - set(WORKLOAD_BUILDERS)
    if unknown:
        raise ServingError(
            f"trace '{path}' names unknown workloads {sorted(unknown)}; "
            f"known: {sorted(WORKLOAD_BUILDERS)}"
        )
    num_requests = header.get("num_requests")
    if not isinstance(num_requests, int) or num_requests < 1 or not workloads:
        raise ServingError(
            f"trace '{path}' header lacks totals — was the recording "
            "interrupted?"
        )
    return TraceInfo(
        path=str(path),
        version=TRACE_VERSION,
        num_requests=num_requests,
        workloads=workloads,
        duration_s=float(header.get("duration_s", 0.0)),
        source=dict(header.get("source") or {}),
    )


class RequestTrace:
    """Streaming handle on a recorded trace file."""

    def __init__(self, path: str | Path) -> None:
        self.info = read_header(path)
        self.path = Path(path)

    @property
    def num_requests(self) -> int:
        """Requests recorded in the trace."""
        return self.info.num_requests

    @property
    def workloads(self) -> tuple[str, ...]:
        """Sorted workload universe of the trace."""
        return self.info.workloads

    def iter_chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[tuple[list[float], list[str], list[int]]]:
        """Yield ``(arrivals, workloads, request_ids)`` columnar chunks.

        Lines are parsed and validated on the fly — sortedness, strictly
        increasing ids, known workloads, finite non-negative arrivals — and at
        most ``chunk_size`` requests are in memory at once.  The header's
        ``num_requests`` must match the line count, so a truncated file
        fails loudly instead of replaying silently short.
        """
        if chunk_size < 1:
            raise ServingError(f"chunk_size must be positive, got {chunk_size}")
        info = self.info
        known = set(info.workloads)
        loads = json.loads
        isfinite = math.isfinite
        count = 0
        prev_arrival = -float("inf")
        prev_id = -1
        arrivals: list[float] = []
        names: list[str] = []
        ids: list[int] = []
        with self.path.open("r", encoding="ascii") as handle:
            handle.read(_HEADER_WIDTH)
            for line in handle:
                if not line.strip():
                    continue
                try:
                    row = loads(line)
                except (json.JSONDecodeError, ValueError):
                    row = None
                # Exact type() checks: bool is an int subclass, and a float
                # id or a bool arrival must not replay as a number.
                if (
                    type(row) is not list
                    or len(row) != 3
                    or type(row[0]) is not int
                    or type(row[1]) is not str
                    or (type(row[2]) is not float and type(row[2]) is not int)
                ):
                    raise ServingError(
                        f"trace '{self.path}' has a malformed line near "
                        f"request {count}: expected [int id, str workload, "
                        "number arrival_s]"
                    )
                request_id, workload, arrival_s = row
                if workload not in known:
                    raise ServingError(
                        f"trace '{self.path}' line names workload "
                        f"'{workload}' missing from its header"
                    )
                if not isfinite(arrival_s):
                    raise ServingError(
                        f"trace '{self.path}' has a non-finite arrival at "
                        f"request {request_id}"
                    )
                if arrival_s < 0:
                    raise ServingError(
                        f"trace '{self.path}' has a negative arrival at "
                        f"request {request_id}"
                    )
                if (
                    arrival_s < prev_arrival
                    or (arrival_s == prev_arrival and request_id <= prev_id)
                    or request_id <= prev_id
                ):
                    raise ServingError(
                        f"trace '{self.path}' is not sorted by "
                        "(arrival_s, request_id) with strictly increasing "
                        f"ids near request {request_id}"
                    )
                prev_arrival = arrival_s
                prev_id = request_id
                arrivals.append(arrival_s)
                names.append(workload)
                ids.append(request_id)
                count += 1
                if len(arrivals) >= chunk_size:
                    yield arrivals, names, ids
                    arrivals, names, ids = [], [], []
        if arrivals:
            yield arrivals, names, ids
        if count != info.num_requests:
            raise ServingError(
                f"trace '{self.path}' is truncated: header promises "
                f"{info.num_requests} requests, found {count}"
            )

    def iter_requests(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Request]:
        """Yield :class:`Request` objects one by one (streaming)."""
        for arrivals, names, ids in self.iter_chunks(chunk_size):
            for arrival_s, workload, request_id in zip(arrivals, names, ids):
                yield Request(request_id, workload, arrival_s)

    def requests(self) -> list[Request]:
        """Materialize the whole trace as a request list.

        Convenience for small traces (full-record runs, round-trip tests);
        stick to :meth:`iter_chunks` + ``run_stream`` for very large ones.
        """
        return list(self.iter_requests())


def record_process(
    path: str | Path,
    process: ArrivalProcess,
    duration_s: float,
    seed: int = 0,
    window_s: float | None = None,
    source: Mapping[str, object] | None = None,
) -> TraceInfo:
    """Record ``process``'s arrivals over ``duration_s`` to a trace file.

    With ``window_s`` the stream is generated in consecutive time windows
    (window ``k`` seeded ``seed * 10_007 + k``, ids continuing across
    windows), so recording a multi-million-request trace needs memory for
    one window only.  Without it the process generates in one shot with
    ``seed`` — byte-identical to serving the same generator directly.
    """
    if duration_s <= 0:
        raise ServingError(f"duration must be positive, got {duration_s}")
    provenance = {
        "process": type(process).__name__,
        "duration_s": duration_s,
        "seed": seed,
        **({"window_s": window_s} if window_s is not None else {}),
        **dict(source or {}),
    }

    if window_s is None:
        stream: Iterable[Request] = process.generate(duration_s, seed=seed)
    else:
        if window_s <= 0:
            raise ServingError(f"window_s must be positive, got {window_s}")

        def windows() -> Iterator[Request]:
            offset = 0.0
            start_id = 0
            window = 0
            while offset < duration_s:
                span = min(window_s, duration_s - offset)
                generated = process.generate(
                    span,
                    seed=seed * SEED_STRIDE + window,
                    start_s=offset,
                    start_id=start_id,
                )
                yield from generated
                start_id += len(generated)
                offset += span
                window += 1

        stream = windows()
    return write_trace(path, stream, source=provenance)


def record_scenario(
    path: str | Path,
    name: str,
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
) -> TraceInfo:
    """Record a scenario preset's traffic to a trace file.

    The recorded stream is exactly what ``run_scenario`` with the same
    parameters would serve, so replaying the trace reproduces the
    scenario's results.
    """
    from repro.serving.scenarios import get_scenario

    if load_scale <= 0 or duration_scale <= 0:
        raise ServingError("load_scale and duration_scale must be positive")
    scenario = get_scenario(name)
    requests = scenario.traffic(seed, load_scale, duration_scale)
    if not requests:
        raise ServingError(
            f"scenario '{name}' generated no requests "
            f"(seed={seed}, load_scale={load_scale}, "
            f"duration_scale={duration_scale})"
        )
    return write_trace(
        path,
        requests,
        source={
            "scenario": name,
            "seed": seed,
            "load_scale": load_scale,
            "duration_scale": duration_scale,
        },
    )


def replay_trace(
    path: str | Path,
    num_chips: int | None = None,
    router: str = "jsq",
    policy: str = "continuous",
    backends: Sequence[str] = (),
    service_model=None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    shards: int = 1,
    shard_workers: int | None = None,
    telemetry_window_s: float | None = None,
) -> StreamedServingResult:
    """Stream the trace at ``path`` through the serving simulator.

    Fleet defaults mirror the ``steady`` preset (2 chips, join-shortest-
    queue, continuous batching); ``backends`` cycles registry backend
    names across the fleet exactly like ``repro serve --backend``.  The
    replay is deterministic: the same trace and fleet configuration always
    produce the identical result.  ``shards > 1`` splits router-independent
    sub-fleets into per-shard simulations (see
    :mod:`repro.serving.sharding`); fleets that cannot shard fall back to
    the single-shard core and record why in the result's provenance.
    ``telemetry_window_s`` attaches the windowed time series
    (:mod:`repro.serving.telemetry`) to the result.
    """
    from repro.serving.batching import build_policy
    from repro.serving.fleet import Fleet

    trace = RequestTrace(path)
    backend_tuple = tuple(backends or ())
    if num_chips is not None:
        chips = num_chips
    elif backend_tuple:
        chips = len(backend_tuple)
    else:
        chips = 2
    fleet = Fleet(num_chips=chips, router=router, backends=backend_tuple)
    simulator = ServingSimulator(
        service_model=service_model,
        fleet=fleet,
        batching_policy=build_policy(policy),
    )
    return simulator.run_stream(
        trace.iter_chunks(chunk_size),
        workloads=trace.workloads,
        provenance={
            "trace": trace.path.name,
            "trace_requests": trace.num_requests,
            "trace_source": dict(trace.info.source),
        },
        shards=shards,
        shard_workers=shard_workers,
        telemetry_window_s=telemetry_window_s,
    )
