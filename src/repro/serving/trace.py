"""Recordable, replayable request traces for the serving simulator.

A *request trace* is a JSONL file: one fixed-width header line of
metadata, then one compact ``[request_id, workload, arrival_s]`` line per
request, sorted by ``(arrival_s, request_id)`` with strictly increasing
ids.  The format is deliberately boring — greppable, diffable, appendable
— and built for scale in both directions:

* **Recording** streams requests to disk as they are produced (a recorder
  over a long arrival process never holds the full stream), rewriting the
  space-padded header in place once the totals are known.  The writer
  works on columns: a :class:`~repro.serving.traffic.RequestStream` (what
  every generator returns, and what :func:`record_process` and
  :func:`record_scenario` hand it) is cut into blocks of its columns, any
  other request iterable is columnarized block by block, and each block is
  order-checked, formatted with one ``json.dumps`` per column and written
  in one call.  The bytes are those of one ``json.dumps`` per request.
* **Replaying** streams the file back as columnar chunks
  (:meth:`RequestTrace.iter_chunks`), which
  :meth:`~repro.serving.simulator.ServingSimulator.run_stream` consumes in
  bounded memory — a multi-million-request trace never materializes as one
  Python list.  Each block of lines is decoded by one ``json.loads`` and
  validated as a whole; when a block fails any check (or holds blank
  lines) the rest of its chunk is re-read line by line by the reference
  parser, so a bad trace raises the same error, naming the same request,
  as a per-line reader.  A block (:data:`_BLOCK_LINES`) bounds the text
  and values either side holds beyond the columns.

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
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from repro.errors import ServingError
from repro.serving._checks import check_number, check_scales, check_seed
from repro.serving.simulator import (
    DEFAULT_CHUNK_SIZE,
    ServingSimulator,
    StreamedServingResult,
    columnar_chunks,
)
from repro.serving.traffic import (
    SEED_STRIDE,
    ArrivalProcess,
    Request,
    RequestStream,
    _first_unordered,
)
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

#: lines the reader decodes, and requests the writer formats, at once: a
#: block's text and values are the only transient copy of the trace
_BLOCK_LINES = 4096



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


def _json_items(values: Sequence) -> list[str]:
    """``json.dumps`` of each value of a number column, in one C call.

    No number's JSON contains ``", "``, so splitting the encoded list
    recovers exactly what ``json.dumps`` writes for each item alone.
    """
    return json.dumps(values)[1:-1].split(", ")


def _chunk_lines(arrivals, names, ids) -> bytes:
    """One chunk's trace lines: each is ``json.dumps([id, workload, arrival_s])``."""
    quoted = {name: json.dumps(name) for name in set(names)}
    return "".join(map(
        "[{}, {}, {}]\n".format,
        _json_items(ids),
        map(quoted.__getitem__, names),
        _json_items(arrivals),
    )).encode("ascii")


def _stream_chunks(
    streams: Iterable[RequestStream],
) -> Iterator[tuple[Sequence[float], Sequence[str], Sequence[int]]]:
    """``(arrivals, workloads, ids)`` blocks of each stream's columns."""
    for stream in streams:
        for start in range(0, len(stream), _BLOCK_LINES):
            stop = start + _BLOCK_LINES
            yield (
                stream.arrivals[start:stop],
                stream.workloads[start:stop],
                stream.ids[start:stop],
            )


def write_trace(
    path: str | Path,
    requests: Iterable[Request],
    source: Mapping[str, object] | None = None,
) -> TraceInfo:
    """Stream ``requests`` to a trace file at ``path``.

    ``requests`` must arrive sorted by ``(arrival_s, request_id)`` with
    strictly increasing ids (every generator in
    :mod:`repro.serving.traffic` satisfies this).  A
    :class:`~repro.serving.traffic.RequestStream` is written from its
    columns; any other iterable is iterated once and columnarized a chunk
    at a time, so recording scales to arbitrarily long streams.
    ``source`` is free-form provenance stored in the header (e.g. the
    scenario name and seed that produced the stream).
    """
    if isinstance(requests, RequestStream):
        chunks = _stream_chunks((requests,))
    else:
        chunks = columnar_chunks(requests, _BLOCK_LINES)
    return _write_chunks(path, chunks, source)


def _write_chunks(path, chunks, source) -> TraceInfo:
    """Write sorted ``(arrivals, workloads, ids)`` chunks as a trace file.

    Each chunk is order-checked (against the previous one too), formatted
    and written in one call.
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
    prev_arrival = -float("inf")
    prev_id = -1
    workloads: set[str] = set()
    with path.open("wb") as handle:
        handle.write(_pad_header(header))
        for arrivals, names, ids in chunks:
            bad = _first_unordered(arrivals, ids, prev_arrival, prev_id)
            if bad >= 0:
                raise ServingError(
                    "trace recording requires requests sorted by "
                    "(arrival_s, request_id) with strictly increasing ids; "
                    f"violated near request {ids[bad]}"
                )
            workloads.update(names)
            handle.write(_chunk_lines(arrivals, names, ids))
            count += len(ids)
            prev_arrival = arrivals[-1]
            prev_id = ids[-1]
        if not count:
            raise ServingError("refusing to record an empty request trace")
        header.update(
            num_requests=count,
            duration_s=prev_arrival,
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


def _decode_block(lines, known, prev_arrival, prev_id):
    r"""Decode and validate a block of trace lines, or ``None`` to decline.

    Each line must read ``[`` + two commas + ``]``: the block's text
    starts with ``[``, ends with ``]``, holds one ``[`` and one ``]`` per
    line and a ``]\n[`` at every line join, and every line holds exactly
    two commas.  Replacing the joins by commas then makes the block one
    flat JSON array, decoded by one ``json.loads`` without a list per row.
    Once every value is checked to be an int id, a known workload name
    (which holds no comma) or a number, every comma separates two values,
    so values ``3i`` to ``3i + 2`` are exactly line ``i``'s row.  The
    block is then checked as a whole: exact types (a bool is no int),
    finite non-negative arrivals and trace order, continuing from
    ``prev_arrival`` and ``prev_id``.  Any doubt declines, and the caller
    re-reads the lines one by one.
    """
    count = len(lines)
    text = "".join(lines)
    if not (
        text.startswith("[")
        and text.endswith(("]\n", "]"))
        and text.count("[") == count == text.count("]")
        and text.count("]\n[") == count - 1
        and set(map(str.count, lines, repeat(","))) == {2}
    ):
        return None
    text = text.replace("]\n[", ",")
    try:
        values = json.loads(text)
    except (ValueError, RecursionError):
        return None
    ids, names, arrivals = values[0::3], values[1::3], values[2::3]
    if (
        len(values) != 3 * count
        or set(map(type, ids)) != {int}
        or set(map(type, names)) != {str}
        or not {float, int}.issuperset(map(type, arrivals))
        or not known.issuperset(names)
    ):
        return None
    try:
        times = np.asarray(arrivals, dtype=float)
    except OverflowError:  # an int arrival beyond float range
        return None
    if not (np.isfinite(times).all() and (times >= 0).all()):
        return None
    if _first_unordered(arrivals, ids, prev_arrival, prev_id) >= 0:
        return None
    return arrivals, names, ids


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

        Each chunk holds the next ``chunk_size`` non-blank lines (fewer at
        the end of the file), validated — sortedness, strictly increasing
        ids, known workloads, finite non-negative arrivals — before it is
        yielded, so at most one chunk is in memory at once.  The header's
        ``num_requests`` must match the line count, so a truncated file
        fails loudly instead of replaying silently short.
        """
        check_number("chunk_size", chunk_size, low=0, strict=True, integer=True)
        known = frozenset(self.info.workloads)
        count = 0
        prev_arrival = -float("inf")
        prev_id = -1
        with self.path.open("r", encoding="ascii") as handle:
            handle.read(_HEADER_WIDTH)
            while True:
                chunk = self._read_chunk(
                    handle, chunk_size, known, count, prev_arrival, prev_id
                )
                if chunk is None:
                    break
                arrivals, _, ids = chunk
                count += len(ids)
                prev_arrival = arrivals[-1]
                prev_id = ids[-1]
                yield chunk
        if count != self.info.num_requests:
            raise ServingError(
                f"trace '{self.path}' is truncated: header promises "
                f"{self.info.num_requests} requests, found {count}"
            )

    def _read_chunk(self, handle, chunk_size, known, count, prev_arrival,
                    prev_id):
        """The next chunk's columns, or ``None`` at the end of the file.

        Lines are decoded :data:`_BLOCK_LINES` at a time
        (:func:`_decode_block`).  When a block declines — blank lines, or
        any line it cannot prove valid — the rest of the chunk (its
        non-blank lines topped up to ``chunk_size``) is re-read one line
        at a time (:meth:`_parse_lines`), which accepts what is valid and
        raises the error of the first bad line.
        """
        arrivals: list = []
        names: list = []
        ids: list = []
        while len(ids) < chunk_size:
            want = chunk_size - len(ids)
            lines = list(islice(handle, min(want, _BLOCK_LINES)))
            if not lines:
                break
            block = _decode_block(lines, known, prev_arrival, prev_id)
            if block is None:
                lines = list(filter(str.strip, lines))
                while len(lines) < want:
                    more = list(islice(handle, want - len(lines)))
                    if not more:
                        break
                    lines.extend(filter(str.strip, more))
                block = self._parse_lines(
                    lines, known, count + len(ids), prev_arrival, prev_id
                )
                if not block[2]:
                    break
            arrivals += block[0]
            names += block[1]
            ids += block[2]
            prev_arrival = arrivals[-1]
            prev_id = ids[-1]
        return (arrivals, names, ids) if ids else None

    def _parse_lines(self, lines, known, count, prev_arrival, prev_id):
        """Parse and validate non-blank ``lines`` one at a time.

        The reference reader, and the error path of the chunk decoder:
        ``count``, ``prev_arrival`` and ``prev_id`` describe the requests
        before ``lines``, so each error names the request it occurs at.
        """
        loads = json.loads
        isfinite = math.isfinite
        arrivals: list[float] = []
        names: list[str] = []
        ids: list[int] = []
        for line in lines:
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
            try:
                finite = isfinite(arrival_s)
            except OverflowError:  # an int arrival beyond float range
                raise ServingError(
                    f"trace '{self.path}' has an arrival beyond float "
                    f"range at request {request_id}"
                ) from None
            if not finite:
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
        return arrivals, names, ids

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
    check_number("duration", duration_s, low=0, strict=True)
    check_seed(seed)
    if window_s is not None:
        check_number("window_s", window_s, low=0, strict=True)
    provenance = {
        "process": type(process).__name__,
        "duration_s": duration_s,
        "seed": seed,
        **({"window_s": window_s} if window_s is not None else {}),
        **dict(source or {}),
    }

    if window_s is None:
        return write_trace(
            path, process.generate(duration_s, seed=seed), source=provenance
        )

    def windows() -> Iterator[RequestStream]:
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
            yield generated
            start_id += len(generated)
            offset += span
            window += 1

    return _write_chunks(path, _stream_chunks(windows()), provenance)


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

    check_seed(seed)
    check_scales(load_scale, duration_scale)
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
