"""Discrete-event core of the request-level serving simulator.

The simulator advances request arrivals, chip completions and batching
wake-ups over a fleet of backend chips (all CogSys by default, or any mix
of registry backends).  Three pluggable pieces define a run:

* the request stream (:mod:`repro.serving.traffic` or a recorded trace,
  :mod:`repro.serving.trace`),
* the batching policy (:mod:`repro.serving.batching`),
* the fleet: per-chip backends, routing policy and the memoized
  service-time model (:mod:`repro.serving.fleet`).

The hot path is built for million-request traces: arrivals are consumed
from pre-sorted columnar chunks by index (no per-request heap entries —
the event heap only ever holds one completion/wake-up per chip), chip
queues are slot-keyed ``{workload: group}`` maps whose groups pop a
dispatched batch as one list slice, routing for the built-in routers is
inlined integer comparison, and the ``(chip model, workload, batch size)``
service/energy table is memoized outside the loop.  On top of that, the
*chunked clock advance* scans each columnar chunk once (vectorized) for
idle-disjoint runs — maximal spans where every arrival strictly outlives
the previous request's service — and serves whole runs without touching
the event heap at all; its saturated complement — arrivals that find
every chip busy — drains up to the next heap event in one pass of the
arrival loop, or, past ``FILL_MIN_RUN`` arrivals on a jsq fleet, in one
numpy water fill.  Every other arrival takes the same loop, one instant
at a time, and every completion the same ``_FREE`` handler, so each kind
of event has one piece of code.  Third-party routers still work through
the generic ``route`` call, and batching policies that only implement
``select`` run on the same slot-keyed queues through the base class's
``plan`` adapter (``vectorize=False`` forces the scalar path everywhere,
which the property harness uses to prove the chunked advance changes no
bytes).

Fleets whose router partitions the chips into independent sub-fleets can
additionally run with ``shards > 1`` (see :mod:`repro.serving.sharding`):
each component simulates in isolation — optionally on worker processes —
and the results merge deterministically.

The closed-loop controller (:func:`~repro.serving.control.run_controlled`)
is a private ``_simulate`` hook: the core pre-allocates ``max_chips`` chips,
routes only over the ones the controller reports ACTIVE, asks it to admit
each arrival, reports completions to its sensors and hands it the
``_WARM``/``_TICK`` heap events.  Like chaos, it disables the vectorized
spans (saturated spans still drain in the arrival loop) and defers each
batch's accounting to its completion.

Closed-loop sessions (:func:`~repro.serving.sessions.run_sessions`) are a
private ``_simulate`` arrival-source hook on the same deferred path: each
user's next submission waits in the event heap as an ``_ARRIVAL`` event,
the submissions due at one instant become a one-instant chunk on the
ordinary arrival path, and the source hears of completions and of the
requests a chip failure drops, so users move on.

Determinism: events order by ``(time, kind, sequence)`` with arrivals
before completions before wake-ups at an instant, routing and batching
policies are deterministic functions of observable state, and all
randomness lives in the seeded traffic generators — so the same seed and
scenario always reproduce the identical per-request latency trace.

Invariants the property harness (``tests/serving/test_invariants.py``)
pins across every policy/router: conservation (every arrival completes
exactly once), causality (``arrival <= dispatch <= finish`` per request),
and per-chip non-overlap (a chip never executes two batches at once).
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from array import array
from bisect import insort
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MethodType
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ServingError
from repro.serving.batching import (
    BatchingPolicy,
    ContinuousBatching,
    FixedSizeBatching,
    NoBatching,
)
from repro.serving.chaos import (
    OP_FAIL,
    OP_RECOVER,
    OP_SLOW_START,
    ChaosTimeline,
)
from repro.serving.fleet import (
    FixedOwnersRouter,
    Fleet,
    FleetServiceModel,
    JoinShortestQueueRouter,
    RoundRobinRouter,
    SymbolicAffinityRouter,
    WorkloadAffinityRouter,
)
from repro.serving.traffic import Request, RequestStream

if TYPE_CHECKING:
    from repro.serving.telemetry import TelemetrySeries

__all__ = [
    "RecordTable",
    "RequestRecord",
    "ServingResult",
    "StreamedServingResult",
    "ServingSimulator",
    "columnar_chunks",
    "request_columns",
]

# Event kinds, in tie-breaking order: arrivals first so load-aware routers
# and batch formation see every request that lands at an instant (only
# closed-loop submissions enter the heap as arrivals; open-loop ones are
# read from their columnar chunks, which outrank the heap at ties), then chip
# completions, then batching wake-ups, then chaos incidents — a batch that
# finishes exactly at a failure instant completes normally, and requests
# arriving exactly then are enqueued first (and therefore shed).  Controlled
# runs add chip warm-ups and, last, the control tick, so a tick never
# observes a half-applied instant.
_ARRIVAL, _FREE, _WAKE, _CHAOS, _WARM, _TICK = 0, 1, 2, 3, 4, 5

#: shard-fallback reason recorded when a chaos timeline forces the
#: single-shard path (lost/shed accounting and fleet-wide power caps are
#: global, so components cannot simulate independently)
CHAOS_SHARD_FALLBACK = (
    "chaos timeline couples shards (incident accounting is fleet-global)"
)

#: request-index chunk size used when columnarizing in-memory streams
DEFAULT_CHUNK_SIZE = 65536

#: shortest idle-disjoint run the chunked clock advance will take over; a
#: run's fixed vectorization overhead (~a dozen small array ops) beats the
#: scalar loop only past this length, so shorter runs stay on the exact
#: same scalar path they always used
BULK_MIN_RUN = 16

#: shortest saturated arrival run the coupled water-fill dispatch will
#: take over; shorter runs drain through the arrival loop.  With
#: its per-span setup (two bisects, a depth scan, and per-chip strided
#: gathers plus a stable segment sort) the water fill beats that loop only
#: past about 380-900 arrivals (a single span after saturating 2-16 JSQ
#: chips, best of 15, 2-vCPU host), so only deep standing queues vectorize
FILL_MIN_RUN = 512

#: batches an :class:`_EmitLog` with a ``flush`` callback holds before it
#: calls it, so a streamed run keeps few undecoded batches between chunks
EMIT_LOG_BATCHES = 512


class RequestRecord(NamedTuple):
    """Lifecycle of one request through the serving system.

    A named tuple rather than a dataclass, so a :class:`RecordTable` that
    is asked for its records builds them cheaply.
    """

    request_id: int
    workload: str
    chip: int
    arrival_s: float
    dispatch_s: float
    finish_s: float
    batch_size: int

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.finish_s - self.arrival_s

    @property
    def queue_delay_s(self) -> float:
        """Time spent queued before the batch launched."""
        return self.dispatch_s - self.arrival_s

    @property
    def service_s(self) -> float:
        """Chip-occupancy time of the batch the request rode in."""
        return self.finish_s - self.dispatch_s


#: the columns of a :class:`RecordTable`, in :class:`RequestRecord` field order
#: (``codes`` index the table's ``names``)
_RECORD_COLUMNS = (
    "ids", "codes", "chip", "arrival", "dispatch", "finish", "size",
)


class RecordTable(Sequence[RequestRecord]):
    """A whole-trace run's per-request records, held as numpy columns.

    ``ids``, ``codes``, ``chip``, ``arrival``, ``dispatch``, ``finish`` and
    ``size`` are read-only arrays with one row per completed request, in
    the :class:`RequestRecord` field order; ``codes`` index ``names``.  A
    run's table is sorted by request id.  Summary readers read the
    columns.  Indexing or iterating builds every :class:`RequestRecord`
    once and keeps them.  A table compares equal to another table, or to
    a tuple or list, holding the same records.
    """

    __slots__ = (*_RECORD_COLUMNS, "names", "_records")

    def __init__(
        self,
        ids: np.ndarray,
        codes: np.ndarray,
        names: Sequence[str],
        chip: np.ndarray,
        arrival: np.ndarray,
        dispatch: np.ndarray,
        finish: np.ndarray,
        size: np.ndarray,
    ) -> None:
        columns = (ids, codes, chip, arrival, dispatch, finish, size)
        dtypes = (np.int64, np.int64, np.int64, float, float, float, np.int64)
        for name, column, dtype in zip(_RECORD_COLUMNS, columns, dtypes):
            # A view, so freezing it leaves the caller's array writeable.
            column = np.asarray(column, dtype=dtype).view()
            if column.shape != (len(ids),):
                raise ServingError("record table columns differ in length")
            column.flags.writeable = False
            setattr(self, name, column)
        self.names = tuple(names)
        self._records: tuple[RequestRecord, ...] | None = None

    @classmethod
    def from_records(cls, records: Iterable[RequestRecord]) -> "RecordTable":
        """The table of ``records``, which it keeps and returns as given."""
        records = tuple(records)
        ids, workloads, chip, arrival, dispatch, finish, size = (
            zip(*records) if records else ((),) * 7
        )
        names = tuple(dict.fromkeys(workloads))
        code_of = {name: code for code, name in enumerate(names)}
        table = cls(
            ids, [code_of[name] for name in workloads], names, chip,
            arrival, dispatch, finish, size,
        )
        table._records = records
        return table

    def _built(self) -> tuple[RequestRecord, ...]:
        """The records, built from the columns on first use."""
        if self._records is None:
            self._records = tuple(
                map(
                    RequestRecord,
                    self.ids.tolist(),
                    map(self.names.__getitem__, self.codes.tolist()),
                    self.chip.tolist(),
                    self.arrival.tolist(),
                    self.dispatch.tolist(),
                    self.finish.tolist(),
                    self.size.tolist(),
                )
            )
        return self._records

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[RequestRecord]:
        return iter(self._built())

    def _fields(self) -> tuple[np.ndarray, ...]:
        """The columns in record field order, workloads as names."""
        return (
            self.ids, np.array(self.names, dtype=object)[self.codes],
            self.chip, self.arrival, self.dispatch, self.finish, self.size,
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordTable):
            return len(self) == len(other) and all(
                map(np.array_equal, self._fields(), other._fields())
            )
        if isinstance(other, (tuple, list)):
            return self._built() == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} records)"

    def latency(self) -> np.ndarray:
        """End-to-end latencies (``finish - arrival``), one per row."""
        return self.finish - self.arrival


class _BatchLog(NamedTuple):
    """A finished run's batches as columns: what every result reader takes.

    ``chip``, ``dispatch``, ``finish``, ``size`` and ``code`` (an index
    into the run's sorted workload names) hold one entry per batch, each
    chip's batches in the order it dispatched them.  ``arrival`` and
    ``ids`` hold the members of every batch in queue order, batch after
    batch, so ``size`` is the repeat count that spreads a batch column
    over its requests.  ``ids`` is ``None`` in a log decoded for telemetry,
    which never reads request ids.
    """

    chip: np.ndarray
    dispatch: np.ndarray
    finish: np.ndarray
    size: np.ndarray
    code: np.ndarray
    arrival: np.ndarray
    ids: np.ndarray | None

    @classmethod
    def concat(cls, logs: Sequence["_BatchLog"]) -> "_BatchLog":
        """One log holding the batches of ``logs``, in order."""
        if len(logs) == 1:
            return logs[0]
        return cls(*(
            None if column[0] is None else np.concatenate(column)
            for column in zip(*logs)
        ))

    def reordered(self, order: np.ndarray) -> "_BatchLog":
        """The log with its batches in ``order``; members move with them."""
        size = self.size[order]
        starts = np.cumsum(self.size) - self.size
        members = np.repeat(
            starts[order] - (np.cumsum(size) - size), size
        ) + np.arange(int(size.sum()))
        return _BatchLog(
            self.chip[order], self.dispatch[order], self.finish[order], size,
            self.code[order], self.arrival[members],
            None if self.ids is None else self.ids[members],
        )

    def records(self, names: Sequence[str]) -> RecordTable:
        """The run's id-sorted :class:`RecordTable`; ``code`` indexes ``names``."""
        size = self.size
        order = np.argsort(self.ids, kind="stable")
        return RecordTable(
            self.ids[order], np.repeat(self.code, size)[order], names,
            np.repeat(self.chip, size)[order], self.arrival[order],
            np.repeat(self.dispatch, size)[order],
            np.repeat(self.finish, size)[order],
            np.repeat(size, size)[order],
        )


class _EmitLog:
    """The batches a ``_simulate`` call emits, captured in emission order.

    :meth:`emit` and :meth:`emit_run` are the core's callbacks (see
    :meth:`ServingSimulator._simulate` for their arguments); :meth:`take`
    decodes what was captured since the last take into one
    :class:`_BatchLog`.  This is the one reader of the emit layout: a
    batch is ``(chip, dispatch, finish, size, workload, members)`` with
    ``members`` its ``(arrivals, ids)`` pair, and an idle-disjoint run is
    a span of size-1 batches dispatched at their arrival instants.

    ``flush``, when given, is called whenever :data:`EMIT_LOG_BATCHES`
    batches are waiting, to take them.
    """

    __slots__ = ("batches", "runs", "flush")

    def __init__(self, flush=None) -> None:
        self.batches: list[tuple] = []
        #: ``(batches emitted before it, chip_ids, arrivals, finishes,
        #: codes, ids)`` per run
        self.runs: list[tuple] = []
        self.flush = flush

    def __bool__(self) -> bool:
        return bool(self.batches or self.runs)

    def emit(self, *batch) -> None:
        """The core's per-batch callback."""
        batches = self.batches
        batches.append(batch)
        if self.flush is not None and len(batches) >= EMIT_LOG_BATCHES:
            self.flush()

    def emit_run(self, chip_ids, arrivals, finishes, _names, codes, ids) -> None:
        """The core's idle-disjoint-run callback."""
        self.runs.append(
            (len(self.batches), chip_ids, arrivals, finishes, codes, ids)
        )

    def take(self, workloads: Sequence[str], with_ids: bool = True) -> _BatchLog:
        """Decode and forget the capture; codes index ``workloads``.

        A batch of a workload missing from ``workloads`` raises
        :class:`~repro.errors.ServingError`.
        """
        batches, runs = self.batches, self.runs
        self.batches, self.runs = [], []
        num_batches = len(batches)
        code_of = {name: code for code, name in enumerate(workloads)}

        def column(index: int, dtype) -> np.ndarray:
            return np.fromiter(
                map(operator.itemgetter(index), batches), dtype, num_batches
            )

        size = column(3, np.int64)
        total = int(size.sum())
        members = list(map(operator.itemgetter(5), batches))

        def member(index: int) -> Iterator:
            """Field ``index`` of every batch's members, in emission order."""
            return itertools.chain.from_iterable(
                map(operator.itemgetter(index), members)
            )

        try:
            codes = np.fromiter(
                map(code_of.__getitem__, map(operator.itemgetter(4), batches)),
                np.int64,
                num_batches,
            )
        except KeyError as error:
            raise ServingError(
                f"stream contains workload '{error.args[0]}' missing from the "
                f"declared workload set {list(workloads)}"
            ) from None
        try:
            ids = np.fromiter(member(1), np.int64, total) if with_ids else None
        except OverflowError:
            raise _id_range_error(member(1)) from None
        log = _BatchLog(
            column(0, np.int64), column(1, float), column(2, float), size,
            codes, np.fromiter(member(0), float, total), ids,
        )
        if not runs:
            return log
        # Splice each run in where the core emitted it.
        starts = np.concatenate(([0], np.cumsum(size)))

        def emitted(lo: int, hi: int) -> _BatchLog:
            """Batches ``lo:hi`` of the per-batch emits."""
            first, stop = starts[lo], starts[hi]
            return _BatchLog(
                *(column[lo:hi] for column in log[:5]),
                log.arrival[first:stop],
                None if log.ids is None else log.ids[first:stop],
            )

        parts = []
        done = 0
        for position, chip_ids, arrivals, finishes, codes, ids in runs:
            count = len(arrivals)
            arrivals = np.asarray(arrivals, dtype=float)
            try:
                ids = np.fromiter(ids, np.int64, count) if with_ids else None
            except OverflowError:
                raise _id_range_error(ids) from None
            parts.append(emitted(done, position))
            parts.append(_BatchLog(
                # ``chip_ids`` is one chip or a per-request array.
                np.zeros(count, np.int64) + chip_ids,
                arrivals,
                np.asarray(finishes, dtype=float),
                np.ones(count, np.int64),
                np.asarray(codes, dtype=np.int64),
                arrivals,
                ids,
            ))
            done = position
        parts.append(emitted(done, num_batches))
        return _BatchLog.concat(parts)


def _id_range_error(
    ids: Iterable[int],
    needs: str = "a whole-trace result needs; serve the stream with run_stream",
) -> ServingError:
    """The error for ``ids`` that leave the int64 range a run ``needs``."""
    outside = next((i for i in ids if not -(2**63) <= i < 2**63), None)
    return ServingError(f"request id {outside} is outside the int64 range {needs}")


class _FleetRunStats:
    """Derived metrics shared by full-trace and streamed serving results."""

    @property
    def span_s(self) -> float:
        """Active span of the run: first arrival to last completion."""
        return max(self.horizon_s - self.first_arrival_s, 0.0)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second over the active span."""
        return self.num_requests / self.span_s if self.span_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average requests per dispatched batch."""
        return self.num_requests / self.num_batches if self.num_batches else 0.0

    @property
    def utilization(self) -> float:
        """Mean busy fraction across the fleet over the active span."""
        if self.span_s <= 0 or self.num_chips == 0:
            return 0.0
        return min(1.0, sum(self.chip_busy_s) / (self.span_s * self.num_chips))


@dataclass(frozen=True)
class ServingResult(_FleetRunStats):
    """Everything a serving run produced, ready for the metrics layer.

    ``records`` is a :class:`RecordTable`; a tuple or list of records
    passed in is wrapped in one.
    """

    records: RecordTable
    num_chips: int
    chip_busy_s: tuple[float, ...]
    chip_requests: tuple[int, ...]
    energy_joules: float
    num_batches: int
    horizon_s: float
    first_arrival_s: float = 0.0
    #: backend name of every chip (empty for legacy constructions)
    chip_backends: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)
    #: windowed time series, present when the run asked for telemetry
    telemetry: "TelemetrySeries | None" = None
    #: requests whose in-flight batch a chip failure killed
    requests_lost: int = 0
    #: requests dropped from a failed chip's queue (or stranded on a chip
    #: that never recovered)
    requests_shed: int = 0
    #: realized incident log of the run's chaos timeline, in event order
    incidents: tuple[dict, ...] = ()

    def __post_init__(self):
        if not isinstance(self.records, RecordTable):
            object.__setattr__(
                self, "records", RecordTable.from_records(self.records)
            )

    @property
    def num_requests(self) -> int:
        """Requests served."""
        return len(self.records)

    @property
    def requests_arrived(self) -> int:
        """Requests offered to the fleet: completed + lost + shed."""
        return len(self.records) + self.requests_lost + self.requests_shed

    def latencies_s(self) -> list[float]:
        """Per-request end-to-end latencies, in request-id order."""
        return self.records.latency().tolist()

    def latency_values(self) -> np.ndarray:
        """End-to-end latencies as a float array, in request-id order."""
        return self.records.latency()

    def queue_delay_values(self) -> np.ndarray:
        """Queueing delays as a float array, in request-id order."""
        return self.records.dispatch - self.records.arrival

    def workload_latency_values(self) -> dict[str, np.ndarray]:
        """Latency arrays per workload, requests in request-id order.

        Workloads appear in the order of their first request.
        """
        records = self.records
        latencies = records.latency()
        codes = records.codes
        present, first = np.unique(codes, return_index=True)
        return {
            records.names[code]: latencies[codes == code]
            for code in present[np.argsort(first)].tolist()
        }


@dataclass(frozen=True)
class StreamedServingResult(_FleetRunStats):
    """Aggregate outcome of a streamed run (no per-request record objects).

    Produced by :meth:`ServingSimulator.run_stream`, which serves arrivals
    from columnar chunks and keeps only typed latency arrays — so a
    multi-million-request trace replays in bounded memory.  Latency arrays
    are in *completion (dispatch) order*, which percentile/goodput metrics
    are invariant to; anything needing per-request identity should use
    :meth:`ServingSimulator.run` instead.
    """

    num_requests: int
    num_chips: int
    chip_busy_s: tuple[float, ...]
    chip_requests: tuple[int, ...]
    energy_joules: float
    num_batches: int
    horizon_s: float
    first_arrival_s: float
    chip_backends: tuple[str, ...]
    latency_s: np.ndarray
    queue_delay_s: np.ndarray
    workload_latency_s: Mapping[str, np.ndarray]
    chip_latency_s: tuple[np.ndarray, ...]
    provenance: dict = field(default_factory=dict)
    #: windowed time series, present when the run asked for telemetry
    telemetry: "TelemetrySeries | None" = None
    #: requests whose in-flight batch a chip failure killed
    requests_lost: int = 0
    #: requests dropped from a failed chip's queue (or stranded on a chip
    #: that never recovered)
    requests_shed: int = 0
    #: realized incident log of the run's chaos timeline, in event order
    incidents: tuple[dict, ...] = ()

    @property
    def requests_arrived(self) -> int:
        """Requests offered to the fleet: completed + lost + shed."""
        return self.num_requests + self.requests_lost + self.requests_shed

    def latencies_s(self) -> list[float]:
        """Per-request end-to-end latencies, in completion order."""
        return self.latency_s.tolist()

    def latency_values(self) -> np.ndarray:
        """End-to-end latencies as a float array, in completion order."""
        return self.latency_s

    def queue_delay_values(self) -> np.ndarray:
        """Queueing delays as a float array, in completion order."""
        return self.queue_delay_s

    def workload_latency_values(self) -> Mapping[str, np.ndarray]:
        """Latency arrays per workload, requests in completion order."""
        return self.workload_latency_s


class _Group:
    """One workload's queued ``(arrival_s, request_id)`` entries on a chip.

    Storage is columnar — parallel ``arrs``/``rids`` lists plus a
    consumed-prefix cursor — so bulk producers (the water-fill span path)
    extend whole numpy columns without building one tuple per request, and
    a dispatched batch pops off the front as two slices (``popn``) that
    flow to ``emit`` consumers as ``(arrivals, request_ids)`` columns.
    The consumed prefix is compacted away once it dominates the lists so
    saturated runs stay memory-bounded.  Exposes the read-only sequence
    surface batching-policy ``plan`` implementations rely on (``len``,
    indexing from the logical head, iteration), yielding ``(arrival_s,
    request_id)`` tuples exactly as before.
    """

    __slots__ = ("arrs", "rids", "head")

    #: consumed-prefix length beyond which ``popn`` considers compacting
    _COMPACT_MIN = 4096

    def __init__(self) -> None:
        self.arrs: list[float] = []
        self.rids: list[int] = []
        self.head = 0

    def __len__(self) -> int:
        return len(self.arrs) - self.head

    def __getitem__(self, index):
        if type(index) is int:
            # ``plan`` fast paths read the head entry once per group per
            # dispatch, so the integer case leads.
            if index < 0:
                index += len(self.arrs) - self.head
                if index < 0:
                    raise IndexError("group index out of range")
            at = self.head + index
            return (self.arrs[at], self.rids[at])
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self.arrs) - self.head)
            head = self.head
            return list(
                zip(
                    self.arrs[head + start : head + stop : step],
                    self.rids[head + start : head + stop : step],
                )
            )
        if index < 0:
            index += len(self.arrs) - self.head
            if index < 0:
                raise IndexError("group index out of range")
        at = self.head + index
        return (self.arrs[at], self.rids[at])

    def __iter__(self):
        return iter(zip(self.arrs[self.head :], self.rids[self.head :]))

    def append(self, arrival_s: float, request_id: int) -> None:
        self.arrs.append(arrival_s)
        self.rids.append(request_id)

    def popn(self, count: int) -> tuple[list[float], list[int]]:
        """Pop the first ``count`` entries as an ``(arrivals, ids)`` pair."""
        head = self.head
        end = head + count
        arrs = self.arrs
        rids = self.rids
        if count < 0 or end > len(arrs):
            raise ServingError(
                f"batch of {count} requested from a queue of {len(arrs) - head}"
            )
        members = (arrs[head:end], rids[head:end])
        if end == len(arrs):
            arrs.clear()
            rids.clear()
            self.head = 0
        else:
            self.head = end
            if end > self._COMPACT_MIN and end * 2 >= len(arrs):
                del arrs[:end]
                del rids[:end]
                self.head = 0
        return members


class _SlotChip:
    """Chip state with a slot-keyed queue.

    ``groups`` maps workload name to the queued ``(arrival_s, request_id)``
    entries of that workload, in arrival order; insertion order of the keys
    is first-occurrence order within the current queue (emptied keys are
    deleted), which is exactly the group order a ``select`` policy observes
    on the queue the ``plan`` adapter rebuilds.
    """

    __slots__ = (
        "chip_id", "busy", "inflight", "groups", "depth", "pending", "busy_s",
        "served", "pending_wake_s", "pending_emit",
    )

    def __init__(self, chip_id: int) -> None:
        self.chip_id = chip_id
        self.busy = False
        self.inflight = 0
        self.groups: dict[str, _Group] = {}
        self.depth = 0
        # queued + in-flight, maintained incrementally so load-aware
        # routing is one attribute read instead of a property call
        self.pending = 0
        self.busy_s = 0.0
        self.served = 0
        # Earliest batching wake-up already in the event heap, if any —
        # lets dispatch skip pushing duplicates for an unchanged deadline.
        self.pending_wake_s: float | None = None
        # Chaos runs defer emission/accounting to completion time; the
        # in-flight batch parks here until its FREE event proves it lived.
        self.pending_emit: tuple | None = None

    @property
    def queue_depth(self) -> int:
        """Requests queued on this chip (excluding the executing batch)."""
        return self.depth


class _DepthIndex:
    """Depth-bucket index over per-chip ``pending`` for O(1) JSQ routing.

    ``buckets[depth]`` holds the chip ids whose ``pending`` equals
    ``depth``, in ascending id order, so :meth:`take` returns exactly the
    ``(pending, chip_id)`` minimum a linear scan over the fleet would
    find — without the O(num_chips) scan per arrival.  ``take`` re-files
    the taken chip one bucket deeper because every route is immediately
    followed by ``pending += 1`` on the chosen chip; :meth:`move` re-files
    a chip whose depth dropped when a batch completed.  ``min_depth`` is a
    lower bound advanced lazily by ``take`` (completions only ever lower
    it), so buckets left empty cost one dict probe each, once.
    """

    __slots__ = ("chips", "members", "buckets", "min_depth")

    def __init__(self, chips: list, members: list | None = None) -> None:
        self.chips = chips
        #: the chips routing may choose (every chip unless given)
        self.members = chips if members is None else members
        self.rebuild()

    def rebuild(self) -> None:
        """Re-derive every bucket from the members' current ``pending``."""
        buckets: dict[int, list[int]] = {}
        for chip in self.members:
            buckets.setdefault(chip.pending, []).append(chip.chip_id)
        self.buckets = buckets
        self.min_depth = min(buckets)

    def take(self):
        """Pop the ``(pending, chip_id)``-minimal chip and re-file it +1."""
        buckets = self.buckets
        depth = self.min_depth
        bucket = buckets.get(depth)
        while not bucket:
            depth += 1
            bucket = buckets.get(depth)
        self.min_depth = depth
        chip_id = bucket.pop(0)
        upper = buckets.get(depth + 1)
        if upper is None:
            buckets[depth + 1] = [chip_id]
        else:
            insort(upper, chip_id)
        return self.chips[chip_id]

    def move(self, chip_id: int, old_depth: int, new_depth: int) -> None:
        """Re-file ``chip_id`` after its ``pending`` changed arbitrarily."""
        self.buckets[old_depth].remove(chip_id)
        bucket = self.buckets.get(new_depth)
        if bucket is None:
            self.buckets[new_depth] = [chip_id]
        else:
            insort(bucket, chip_id)
        if new_depth < self.min_depth:
            self.min_depth = new_depth


class _ActiveDepthIndex(_DepthIndex):
    """A :class:`_DepthIndex` over a controller's ACTIVE chips.

    The other chips still change depth (a draining chip completes its
    batches); their moves are no-ops.
    """

    __slots__ = ("member_ids",)

    def __init__(self, chips: list, members: list) -> None:
        self.member_ids = frozenset(chip.chip_id for chip in members)
        super().__init__(chips, members)

    def move(self, chip_id: int, old_depth: int, new_depth: int) -> None:
        if chip_id in self.member_ids:
            _DepthIndex.move(self, chip_id, old_depth, new_depth)


def _jsq_router(chips: list, members: list | None = None):
    """``(take, index)``: join-shortest-queue over ``members`` (default all).

    Two candidates (the most common fleet shape) need one comparison, more
    use the depth-bucket index.  Ties go to the lower chip id, and callers
    increment the chosen chip's ``pending`` (which ``take`` pre-files).
    """
    pool = chips if members is None else members
    if len(pool) == 2:
        chip_a, chip_b = pool

        def take():
            return chip_a if chip_a.pending <= chip_b.pending else chip_b

        return take, None
    index = (
        _DepthIndex(chips) if members is None
        else _ActiveDepthIndex(chips, members)
    )
    return index.take, index


class _Outcome(NamedTuple):
    """What one ``_simulate`` call produced besides its emit callbacks."""

    chips: list
    energy: float
    num_batches: int
    horizon: float
    first_arrival: float
    served: int
    lost: int
    #: the instant each shed request was shed, one entry per request
    shed_s: list
    incidents: tuple
    #: requests per routing path (vectorized span kinds vs the scalar loop)
    event_paths: dict
    #: whether the water-fill span could serve this run
    water_fill: bool

    @property
    def offered(self) -> int:
        """Requests offered: served + lost + shed."""
        return self.served + self.lost + len(self.shed_s)


def _service_cost(model, workload: str, batch_size: int) -> tuple:
    """``(service_s, energy_j)`` of one batch, checked before it is memoized.

    Every service-table fill goes through here.  A negative, infinite or
    NaN service time or energy would turn every later latency, horizon or
    energy total it touches into garbage, so it is a typed error naming
    the table cell instead.  Zero is legal.
    """
    service_s = model.service_seconds(workload, batch_size)
    energy_j = model.energy_joules(workload, batch_size)
    for quantity, value in (("service time", service_s), ("energy", energy_j)):
        if not 0.0 <= value < math.inf:
            raise ServingError(
                f"service model returned {quantity} {value!r} for workload "
                f"'{workload}' at batch size {batch_size}; it must be finite "
                "and >= 0"
            )
    return service_s, energy_j


#: policies whose dispatch-shortcut attributes (``single_group_cap``,
#: ``eager_singleton``) are known to agree with their ``plan``/``select``
_BUILTIN_POLICIES = (NoBatching, FixedSizeBatching, ContinuousBatching)


def _plan_method(policy: BatchingPolicy):
    """``(plan, shortcuts_trusted)`` for the policy.

    The policy's own ``plan`` is used unless the policy overrides
    ``select`` *below* the class providing that plan — a subclass
    replacing ``select`` while inheriting ``plan`` (e.g. a test double)
    must keep its ``select`` semantics authoritative, so it gets the base
    class's ``select`` adapter instead.  ``shortcuts_trusted`` is True only
    when the resolved plan belongs to a built-in policy class: the
    single-group and eager-singleton shortcut attributes are promises about
    that exact plan, and a subclass overriding ``plan`` while inheriting
    the parent's attributes must not have its logic silently bypassed.
    """
    mro = type(policy).__mro__
    plan_index = next(
        (index for index, cls in enumerate(mro) if "plan" in vars(cls)), len(mro)
    )
    select_index = next(
        (index for index, cls in enumerate(mro) if "select" in vars(cls)), None
    )
    if select_index is not None and select_index < plan_index:
        return MethodType(BatchingPolicy.plan, policy), False
    return policy.plan, mro[plan_index] in _BUILTIN_POLICIES


def columnar_chunks(
    requests: Iterable[Request], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterable[tuple[list[float], list[str], list[int]]]:
    """Columnarize a request iterable into ``(arrivals, workloads, ids)`` chunks.

    Adapter from object streams to the columnar form
    :meth:`ServingSimulator.run_stream` consumes; the input must already be
    sorted by ``(arrival_s, request_id)``.
    """
    if chunk_size < 1:
        raise ServingError(f"chunk_size must be positive, got {chunk_size}")
    arrivals: list[float] = []
    workloads: list[str] = []
    ids: list[int] = []
    for request in requests:
        arrivals.append(request.arrival_s)
        workloads.append(request.workload)
        ids.append(request.request_id)
        if len(arrivals) >= chunk_size:
            yield arrivals, workloads, ids
            arrivals, workloads, ids = [], [], []
    if arrivals:
        yield arrivals, workloads, ids


def request_columns(
    requests: Iterable[Request],
) -> tuple[Sequence[float], Sequence[str], Sequence[int]]:
    """The ``(arrivals, workloads, ids)`` columns of a whole request stream.

    A :class:`~repro.serving.traffic.RequestStream` already holds them,
    sorted and checked, and returns them unchanged.  Any other iterable of
    requests is sorted by ``(arrival_s, request_id)``, checked for
    duplicate ids and split into columns.
    """
    if isinstance(requests, RequestStream):
        return requests.arrivals, requests.workloads, requests.ids
    stream = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    ids = [request.request_id for request in stream]
    if len(set(ids)) != len(ids):
        raise ServingError("request stream contains duplicate request ids")
    return (
        [request.arrival_s for request in stream],
        [request.workload for request in stream],
        ids,
    )


def _discard(_arrivals) -> None:
    """The ``drop`` callback of runs without telemetry."""


class ServingSimulator:
    """Run request streams against a fleet of backend chips."""

    def __init__(
        self,
        service_model=None,
        fleet: Fleet | None = None,
        batching_policy: BatchingPolicy | None = None,
        vectorize: bool = True,
        chaos: ChaosTimeline | None = None,
    ) -> None:
        self.fleet = fleet or Fleet()
        self.service_model = service_model or FleetServiceModel(fleet=self.fleet)
        self.batching_policy = batching_policy or NoBatching()
        #: enable the chunked clock advance (vectorized idle-disjoint runs)
        #: and the saturated spans and water fill; False forces the
        #: scalar event loop everywhere, which the
        #: equivalence harness uses to prove the two paths agree byte-for-byte
        self.vectorize = bool(vectorize)
        if chaos is not None and not isinstance(chaos, ChaosTimeline):
            raise ServingError(
                f"chaos must be a ChaosTimeline, got {type(chaos).__name__}"
            )
        #: incident timeline injected into every run; an empty timeline
        #: normalizes to None so "no incidents" is exactly the chaos-free
        #: code path (zero cost when off, byte-for-byte)
        self.chaos = chaos if chaos else None
        if self.chaos is not None:
            self.chaos.compile(self.fleet.num_chips)  # validate chip ids now

    def _chip_models(self) -> list:
        """Per-chip service oracles, validated against the fleet shape."""
        model = self.service_model
        if isinstance(model, FleetServiceModel):
            if model.chip_backends != self.fleet.chip_backends:
                raise ServingError(
                    "service model backends "
                    f"{list(model.chip_backends)} do not match the fleet's "
                    f"{list(self.fleet.chip_backends)}"
                )
            return [model.for_chip(chip) for chip in range(self.fleet.num_chips)]
        if self.fleet.is_heterogeneous:
            raise ServingError(
                "a heterogeneous fleet needs a FleetServiceModel (or pass "
                "service_model=None to build one from the fleet)"
            )
        model_backend = getattr(model, "backend_name", None)
        fleet_backend = self.fleet.chip_backends[0]
        if model_backend is not None and model_backend != fleet_backend:
            raise ServingError(
                f"service model answers for backend '{model_backend}' but the "
                f"fleet's chips are '{fleet_backend}'"
            )
        return [model] * self.fleet.num_chips

    def _make_router(self, workloads: tuple[str, ...], chip_models: list):
        """The fleet router plus the lazily-resolved symbolic oracle."""

        def symbolic_fraction_of(workload: str) -> float:
            """Batch-1 symbolic share on the fleet's reference (baseline) backend.

            Resolved lazily: only symbolic-affinity routing calls this, so
            other routers never touch the backend registry.
            """
            reference_model = chip_models[self.fleet.reference_chip]
            report = getattr(reference_model, "report", None)
            if report is None:
                raise ServingError(
                    "symbolic_affinity routing needs a service model that "
                    "exposes report() (ExecutionCache or FleetServiceModel), "
                    f"got {type(reference_model).__name__}"
                )
            return report(workload, 1).symbolic_fraction

        return self.fleet.make_router(
            workloads, symbolic_fraction_of=symbolic_fraction_of
        )

    def _provenance(self, num_requests: int, outcome: _Outcome | None = None) -> dict:
        """The run-configuration dict every result carries.

        ``num_requests`` is the offered count.  ``outcome`` is the
        ``_simulate`` call the provenance describes; its routing-path
        attribution becomes ``event_paths`` (a sharded run passes none, so
        it never reports a sub-simulation's counters as its own).  Coupled
        (JSQ) fleets also record their engine: ``water_fill`` when the
        numpy water-fill dispatch could run, ``scalar`` when it could not
        (``vectorize=False``, or the deferred path of chaos, controlled
        and session runs, which keep only the saturated spans).
        """
        provenance = {
            "num_requests": num_requests,
            "num_chips": self.fleet.num_chips,
            "router": self.fleet.router,
            "backends": list(dict.fromkeys(self.fleet.chip_backends)),
            "batching_policy": self.batching_policy.name,
            "scheduler": self.service_model.scheduler,
            "cached_reports": self.service_model.cached_reports,
        }
        if self.fleet.router == "jsq":
            provenance["coupled_engine"] = (
                "water_fill" if outcome is not None and outcome.water_fill
                else "scalar"
            )
        if self.chaos is not None:
            provenance["chaos"] = {
                "incidents": len(self.chaos.incidents),
                "windows": list(self.chaos.windows()),
            }
        if outcome is not None:
            provenance["event_paths"] = outcome.event_paths
        return provenance

    def run(
        self,
        requests: Sequence[Request],
        shards: int = 1,
        shard_workers: int | None = None,
        telemetry_window_s: float | None = None,
    ) -> ServingResult:
        """Simulate ``requests`` to completion and return the full trace.

        ``shards > 1`` partitions router-independent sub-fleets into
        per-shard simulations (see :mod:`repro.serving.sharding`) whose
        merged records are identical to the single-shard run.

        ``telemetry_window_s`` additionally derives the windowed
        time-series (:mod:`repro.serving.telemetry`) from the finished
        records and attaches it as ``result.telemetry``; ``None`` (the
        default) skips every telemetry code path.
        """
        if not requests:
            raise ServingError("cannot simulate an empty request stream")
        columns = request_columns(requests)
        workloads = tuple(sorted(set(columns[1])))
        # One pre-sorted columnar chunk: run() already holds the whole stream.
        if shards != 1:
            from repro.serving.sharding import _run_sharded

            return _run_sharded(
                self, [columns], workloads, shards, shard_workers,
                telemetry_window_s,
            )
        return self._run_trace([columns], workloads, telemetry_window_s)

    def _run_trace(
        self,
        chunks,
        workloads: tuple[str, ...],
        telemetry_window_s: float | None = None,
        controller=None,
        source=None,
    ) -> ServingResult:
        """Serve a whole trace on the event core and assemble its result.

        The one result path of :meth:`run`,
        :func:`~repro.serving.control.run_controlled` (``controller``) and
        :func:`~repro.serving.sessions.run_sessions` (``source``): the
        record table, provenance and the windowed series (see
        :mod:`~repro.serving.telemetry` for its contract) are built once,
        from the run's :class:`_BatchLog` and :class:`_Outcome`.
        """
        emits = _EmitLog()
        dropped: list[float] = []
        scaled: dict | None = {} if telemetry_window_s is not None else None
        outcome = self._simulate(
            chunks, workloads, emits.emit, emit_run=emits.emit_run,
            drop=dropped.extend if telemetry_window_s is not None else None,
            scaled_energy=scaled, controller=controller, source=source,
        )
        log = emits.take(workloads)
        chips = outcome.chips
        chip_backends = self.fleet.chip_backends
        if controller is not None:
            # Interchangeable chips: the pool can outgrow the static fleet.
            chip_backends = (chip_backends[0],) * len(chips)
        series = None
        if telemetry_window_s is not None:
            from repro.serving.telemetry import (
                _energy_lookup,
                _series_from_emits,
            )

            chip_models = self._chip_models()
            if controller is not None:
                chip_models = [chip_models[0]] * len(chips)
            series = _series_from_emits(
                log,
                workloads,
                len(chips),
                _energy_lookup(chip_models),
                telemetry_window_s,
                outcome.horizon,
                outcome.first_arrival,
                dropped_arrivals=dropped,
                shed_s=outcome.shed_s,
                scaled_energy=scaled,
            )
        return ServingResult(
            records=log.records(workloads),
            num_chips=len(chips),
            chip_busy_s=tuple(chip.busy_s for chip in chips),
            chip_requests=tuple(chip.served for chip in chips),
            energy_joules=outcome.energy,
            num_batches=outcome.num_batches,
            horizon_s=outcome.horizon,
            first_arrival_s=outcome.first_arrival,
            chip_backends=chip_backends,
            provenance=self._provenance(outcome.offered, outcome),
            telemetry=series,
            requests_lost=outcome.lost,
            requests_shed=len(outcome.shed_s),
            incidents=outcome.incidents,
        )

    def run_stream(
        self,
        chunks: Iterable[tuple[Sequence[float], Sequence[str], Sequence[int]]],
        workloads: Sequence[str],
        provenance: Mapping[str, object] | None = None,
        shards: int = 1,
        shard_workers: int | None = None,
        telemetry_window_s: float | None = None,
    ) -> StreamedServingResult:
        """Serve a columnar arrival stream in bounded memory.

        ``chunks`` yields ``(arrival_s, workload, request_id)`` column
        triples globally sorted by ``(arrival_s, request_id)`` (see
        :func:`columnar_chunks` and ``RequestTrace.iter_chunks``);
        ``workloads`` is the stream's workload universe, needed up front to
        build affinity routers.  Per-request state never outlives the
        request, so multi-million-request traces replay without ever
        materializing as one list; the result carries typed latency arrays
        instead of record objects.

        The core's emits go to one :class:`_EmitLog`, decoded each time the
        core pulls the next chunk, every :data:`EMIT_LOG_BATCHES` batches
        and once at the end: each decoded :class:`_BatchLog` feeds the
        latency arrays and, with
        ``telemetry_window_s``, an incremental
        :class:`~repro.serving.telemetry.TelemetryCollector` that flushes
        windows as the stream advances (bounded memory) and attaches the
        finished series as ``result.telemetry``.
        """
        workload_names = tuple(sorted(set(workloads)))
        if not workload_names:
            raise ServingError("run_stream needs the stream's workload set")
        if shards != 1:
            from repro.serving.sharding import _run_sharded

            return _run_sharded(
                self, chunks, workload_names, shards, shard_workers,
                telemetry_window_s, stream=True, provenance=provenance,
            )

        latencies = array("d")
        queue_delays = array("d")
        workload_latencies = {name: array("d") for name in workload_names}
        workload_buckets = list(workload_latencies.values())
        num_chips = self.fleet.num_chips
        chip_latencies = [array("d") for _ in range(num_chips)]
        collector = chip_models = None
        if telemetry_window_s is not None:
            from repro.serving.telemetry import TelemetryCollector

            chip_models = self._chip_models()
            collector = TelemetryCollector(
                telemetry_window_s, num_chips, chip_models, workload_names
            )

        def flush() -> None:
            """Feed the batches emitted since the last flush to every sink.

            Latencies append in emission order; IEEE-754 subtraction is the
            same operation in numpy and python, so the bytes are those of a
            per-request loop.
            """
            if not emits:
                return
            log = emits.take(workload_names, with_ids=False)
            latency = np.repeat(log.finish, log.size) - log.arrival
            latencies.frombytes(latency.tobytes())
            queue_delays.frombytes(
                (np.repeat(log.dispatch, log.size) - log.arrival).tobytes()
            )
            for keys, buckets in (
                (log.code, workload_buckets), (log.chip, chip_latencies)
            ):
                per_request = np.repeat(keys, log.size)
                for key in np.unique(keys).tolist():
                    buckets[key].frombytes(
                        latency[per_request == key].tobytes()
                    )
            if collector is not None:
                collector.on_log(log)

        emits = _EmitLog(flush)

        def feed():
            """The chunks, flushing the batch log whenever the core pulls one."""
            for chunk in chunks:
                flush()
                if collector is not None:
                    collector.on_arrivals(chunk[0])
                yield chunk

        outcome = self._simulate(
            feed(), workload_names, emits.emit, emit_run=emits.emit_run,
            chip_models=chip_models,
            drop=collector.on_drop if collector is not None else None,
            scaled_energy=(
                collector.scaled_energy if collector is not None else None
            ),
        )
        flush()
        run_provenance = self._provenance(outcome.offered, outcome)
        if provenance:
            run_provenance.update(provenance)
        return StreamedServingResult(
            num_requests=outcome.served,
            num_chips=num_chips,
            chip_busy_s=tuple(chip.busy_s for chip in outcome.chips),
            chip_requests=tuple(chip.served for chip in outcome.chips),
            energy_joules=outcome.energy,
            num_batches=outcome.num_batches,
            horizon_s=outcome.horizon,
            first_arrival_s=outcome.first_arrival,
            chip_backends=self.fleet.chip_backends,
            latency_s=np.frombuffer(latencies, dtype=float),
            queue_delay_s=np.frombuffer(queue_delays, dtype=float),
            workload_latency_s={
                name: np.frombuffer(values, dtype=float)
                for name, values in workload_latencies.items()
            },
            chip_latency_s=tuple(
                np.frombuffer(values, dtype=float) for values in chip_latencies
            ),
            provenance=run_provenance,
            telemetry=(
                collector.finalize(outcome.horizon, outcome.shed_s)
                if collector is not None else None
            ),
            requests_lost=outcome.lost,
            requests_shed=len(outcome.shed_s),
            incidents=outcome.incidents,
        )

    # -- event core ---------------------------------------------------------

    def _simulate(
        self,
        chunks,
        workloads: tuple[str, ...],
        emit,
        emit_run,
        router=None,
        chip_models=None,
        drop=None,
        scaled_energy=None,
        controller=None,
        source=None,
    ):
        """Advance the event core over sorted columnar arrival chunks.

        ``emit(chip_id, dispatch_s, finish_s, size, workload, members)`` is
        called once per dispatched batch with ``members`` the batch's
        ``(arrivals, request_ids)`` column pair in queue order.  Returns an
        :class:`_Outcome`: accounting, lost/shed counts, the incident log,
        shed instants and routing-path attribution.

        ``emit_run(chip_ids, arrivals, finishes, names, codes, ids)``
        receives whole idle-disjoint runs from the chunked clock advance
        instead of one ``emit`` per singleton batch: ``chip_ids`` is an
        int (every request on that chip) or a per-request int array,
        ``arrivals``/``finishes`` are float arrays (dispatch == arrival for
        every request of a run), ``names`` the workload column slice,
        ``codes`` int array indices into sorted ``workloads``, and ``ids``
        the request-id column slice.

        ``drop(arrivals)``, when given, receives the arrival instants of
        the requests the core loses or sheds, as it drops them (a chip that
        never recovers drops what it queues on arrival).  ``shed_s`` of the
        outcome holds each shed request's shed instant: its arrival for
        admission control, the failure instant for a failed chip's queue,
        and the horizon (the drain sweep) for a queue stranded on a chip
        that never recovers.

        ``scaled_energy``, when given, is a dict that receives
        ``batch index -> energy_j`` for every emitted batch a chaos service
        multiplier scaled, the index counting the run's emitted batches in
        emission order (a batch a failure kills is never emitted), so
        telemetry can price the batch as the core did (its ``energy_of``
        lookup only knows the base cost).

        ``router``/``chip_models`` inject a pre-built router and per-chip
        service oracles — the sharding layer uses this to simulate a
        sub-fleet without constructing a sub-``Fleet`` (the chip count is
        ``len(chip_models)``).

        ``controller`` is :func:`~repro.serving.control.run_controlled`'s
        hook object; the returned chips are then its provisioned pool.

        ``source`` is :func:`~repro.serving.sessions.run_sessions`'s
        closed-loop arrival source and replaces ``chunks``: ``bind(push)``
        returns the opening arrival chunk and gets ``push(at_s, user)``,
        which files a later submission as an ``_ARRIVAL`` heap event.  Each
        instant's popped submissions become one chunk from
        ``submit(now, users)`` and take the chunk-arrival path.
        ``advance(now, ids)`` hears of completions at their finish and of
        requests a chip failure loses or sheds at the failure instant
        (queues stranded on a chip that never recovers are not reported).

        The loop runs each kind of event through one piece of code.
        Vectorized spans aside, arrivals go through one arrival loop
        (order check, routing, admission, enqueue or eager singleton) up
        to a bound: the heap head while every chip is busy, else the
        current instant, after which the idle chips it enqueued on
        dispatch in chip-id order.  Completions go through one ``_FREE``
        handler, which in deferred runs (chaos, controller, sessions)
        first accounts for the parked batch; ``_WAKE`` re-checks a
        waiting chip; ``chaos_step`` applies incidents.
        """
        if chip_models is None:
            chip_models = self._chip_models()
        if controller is not None:
            # Interchangeable chips, provisioned as a prefix of the pool.
            chip_models = [chip_models[0]] * controller.config.max_chips
        if router is None:
            router = self._make_router(workloads, chip_models)
        policy = self.batching_policy
        plan, shortcuts_trusted = _plan_method(policy)

        num_chips = len(chip_models)
        chips = [_SlotChip(chip_id) for chip_id in range(num_chips)]

        # Memoized (model, workload, batch) -> (service_s, energy_J) table,
        # hoisted so the inner loop never re-enters the backend layer.  Chips
        # sharing an ExecutionCache share table entries.
        model_index = {}
        chip_model_keys = []
        for model in chip_models:
            chip_model_keys.append(model_index.setdefault(id(model), len(model_index)))
        service_table: dict[tuple, tuple[float, float]] = {}

        heap: list[tuple] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        sequence = itertools.count()
        next_seq = sequence.__next__

        energy = 0.0
        num_batches = 0
        served = 0

        # -- chaos state ---------------------------------------------------
        # A timeline pre-loads the heap with _CHAOS events (payload:
        # ``(opcode, chip, multiplier)``); everything below is untouched
        # when no timeline is set — chaos costs one predictable branch per
        # dispatch and per heap pop, nothing on the vectorized spans
        # (which chaos disables outright so an incident can interrupt any
        # batch mid-flight on the one scalar path both engines share; only
        # the saturated spans stay, since no span crosses an event).
        # A controller takes the same deferred path: its sensors read
        # completions, and scale actions depend on observed state.
        chaos_on = self.chaos is not None
        deferred = chaos_on or controller is not None or source is not None
        chaos_lost = 0
        chaos_log: list[dict] = []
        shed_at: list[float] = []
        if deferred:
            # Down state is a counter, not a bool: a failure window that
            # starts exactly where the previous one ends must keep the
            # chip down regardless of same-instant event order.
            chaos_down = [0] * num_chips
            chaos_factors: list[list[float]] = [[] for _ in range(num_chips)]
            chaos_mult = [1.0] * num_chips
            # Every lost/shed request's arrival instant goes to ``drop``
            # so telemetry can still count it as an arrival (it never
            # emits).
            if drop is None:
                drop = _discard
            # From this instant on a chip is down for good.
            chaos_dead_from = [math.inf] * num_chips

            def shed(arrivals, at_s) -> None:
                """Shed the requests that arrived at ``arrivals`` at ``at_s``."""
                drop(arrivals)
                shed_at.extend(itertools.repeat(at_s, len(arrivals)))
        if chaos_on:
            # A controlled fleet's timeline targets its initial chips.
            for ev_time, op, ev_chip, ev_mult in self.chaos.compile(
                self.fleet.num_chips
            ):
                heappush(
                    heap, (ev_time, _CHAOS, next_seq(), (op, ev_chip, ev_mult))
                )
            for incident in self.chaos.incidents:
                if (
                    incident.kind == "chip_failure"
                    and not math.isfinite(incident.end_s)
                ):
                    chaos_dead_from[incident.chip] = min(
                        chaos_dead_from[incident.chip], incident.at_s
                    )

        # Routing fast paths for the exact built-in router classes; any
        # subclass (overridden route()) goes through the generic call.
        router_type = type(router)
        route_generic = router.route
        jsq_index = None
        # A controller narrows round-robin to its ACTIVE chips.
        rr_chips = chips
        rr_size = num_chips
        if router_type is RoundRobinRouter:
            route_mode = "rr"
            rr_next = router._next
        elif router_type is JoinShortestQueueRouter:
            route_mode = "jsq"
            jsq_take, jsq_index = _jsq_router(chips)
        elif router_type in (
            WorkloadAffinityRouter, SymbolicAffinityRouter, FixedOwnersRouter
        ):
            route_mode = "owners"
            owner_chips = {
                workload: [chips[chip_id] for chip_id in owners]
                for workload, owners in router.owners.items()
            }
        else:
            route_mode = "generic"

        single_cap = policy.single_group_cap if shortcuts_trusted else None

        # -- controller hooks ----------------------------------------------
        # A run without a controller pays one ``admit is None`` per arrival.
        admit = None
        if controller is not None:
            interval_s = controller.config.interval_s

            def route_active():
                """Routing state over the controller's ACTIVE chips.

                ``(route_mode, rr_chips, rr_size, jsq_take, jsq_index)``
                in the controller's current mode.
                """
                active = controller.active_chips()
                if controller.router == "jsq":
                    return ("jsq", active, len(active), *_jsq_router(chips, active))
                return "rr", active, len(active), None, None

            def admit(chosen, workload, now):
                """Admission control: False sheds the routed arrival."""
                if controller.admits(workload, chosen.pending):
                    return True
                shed((now,), now)
                if jsq_index is not None:
                    # Undo the increment ``take`` pre-filed for it.
                    jsq_index.move(
                        chosen.chip_id, chosen.pending + 1, chosen.pending
                    )
                return False

            controller.bind(
                chips,
                lambda at_s, payload: heappush(
                    heap, (at_s, _WARM, next_seq(), payload)
                ),
            )
            route_mode, rr_chips, rr_size, jsq_take, jsq_index = route_active()
            heappush(heap, (interval_s, _TICK, next_seq(), None))

        # Busy chips, maintained at every idle<->busy transition so the
        # water-fill dispatch can test "whole fleet busy" in O(1).
        busy_count = 0

        def dispatch(chip, now):
            nonlocal energy, num_batches, served, busy_count
            if chip.busy or not chip.depth:
                return
            if deferred and chaos_down[chip.chip_id]:
                if now >= chaos_dead_from[chip.chip_id]:
                    # The chip never recovers, so its queue is stranded:
                    # hand the arrivals to ``drop`` now (the drain sweep
                    # still sheds them, at the horizon) so telemetry need
                    # not wait.
                    for group in chip.groups.values():
                        drop(group.arrs[group.head:])
                    chip.groups.clear()
                return  # queued work waits out the chip's down window
            groups = chip.groups
            if len(groups) == 1 and single_cap is not None:
                # One workload queued: the batch is its head requests,
                # capped — no need to consult the policy's full plan.
                # With one group the chip's total queue depth IS the
                # group's length, so the group object is never touched.
                workload = next(iter(groups))
                depth = chip.depth
                count = single_cap if depth > single_cap else depth
                wake_s = None
            else:
                workload, count, wake_s = plan(groups, now)
            if workload is None:
                if (
                    wake_s is not None
                    and wake_s > now
                    and (
                        chip.pending_wake_s is None
                        or wake_s < chip.pending_wake_s
                    )
                ):
                    heappush(heap, (wake_s, _WAKE, next_seq(), chip.chip_id))
                    chip.pending_wake_s = wake_s
                return
            entries = groups[workload]
            members = entries.popn(count)
            if not entries.arrs:
                del groups[workload]
            chip.depth -= count
            key = (chip_model_keys[chip.chip_id], workload, count)
            cached = service_table.get(key)
            if cached is None:
                cached = _service_cost(
                    chip_models[chip.chip_id], workload, count
                )
                service_table[key] = cached
            service_s, energy_j = cached
            if deferred:
                factor = chaos_mult[chip.chip_id]
                if factor != 1.0:
                    service_s *= factor
                    energy_j *= factor
            finish = now + service_s
            chip.busy = True
            busy_count += 1
            chip.inflight = count
            seq = next_seq()
            if deferred:
                # Completion is no longer certain: park the batch and
                # account for it only when its FREE event survives.
                chip.pending_emit = (
                    seq, now, finish, count, workload, members,
                    service_s, energy_j, factor != 1.0,
                )
            else:
                energy += energy_j
                num_batches += 1
                served += count
                chip.busy_s += service_s
                chip.served += count
                emit(chip.chip_id, now, finish, count, workload, members)
            heappush(heap, (finish, _FREE, seq, chip.chip_id))

        # -- chaos incidents -----------------------------------------------
        if chaos_on:

            def chaos_step(now, payload):
                """Apply one ``_CHAOS`` incident at ``now``."""
                nonlocal busy_count, chaos_lost
                op, ev_chip, ev_mult = payload
                chip = chips[ev_chip]
                if op == OP_FAIL:
                    chaos_down[ev_chip] += 1
                    lost_here = 0
                    if chip.busy:
                        # Kill the in-flight batch: its parked emit is
                        # dropped, so the FREE event still in the heap
                        # pops as a stale no-op.
                        lost_here = chip.inflight
                        drop(chip.pending_emit[5][0])
                        if source is not None:
                            source.advance(now, chip.pending_emit[5][1])
                        chip.pending_emit = None
                        chip.busy = False
                        busy_count -= 1
                        if jsq_index is not None:
                            jsq_index.move(
                                ev_chip, chip.pending, chip.pending - lost_here
                            )
                        chip.pending -= lost_here
                        chip.inflight = 0
                    shed_here = chip.depth
                    for group in chip.groups.values():
                        shed(group.arrs[group.head:], now)
                    if source is not None:
                        # Users move on in submission order.
                        source.advance(now, sorted(
                            request_id for group in chip.groups.values()
                            for request_id in group.rids[group.head:]
                        ))
                    chip.groups.clear()
                    chip.depth = 0
                    if shed_here:
                        if jsq_index is not None:
                            jsq_index.move(
                                ev_chip, chip.pending, chip.pending - shed_here
                            )
                        chip.pending -= shed_here
                    chaos_lost += lost_here
                    chaos_log.append({
                        "at_s": now, "kind": "fail", "chip": ev_chip,
                        "requests_lost": lost_here, "requests_shed": shed_here,
                    })
                    if controller is not None:
                        controller.park_if_idle(chip)
                elif op == OP_RECOVER:
                    chaos_down[ev_chip] -= 1
                    chaos_log.append(
                        {"at_s": now, "kind": "recover", "chip": ev_chip}
                    )
                    if not chaos_down[ev_chip]:
                        dispatch(chip, now)
                elif op == OP_SLOW_START:
                    chaos_factors[ev_chip].append(ev_mult)
                    chaos_mult[ev_chip] = math.prod(chaos_factors[ev_chip])
                    chaos_log.append({
                        "at_s": now, "kind": "slow", "chip": ev_chip,
                        "multiplier": ev_mult,
                    })
                else:  # OP_SLOW_END
                    chaos_factors[ev_chip].remove(ev_mult)
                    factors = chaos_factors[ev_chip]
                    # Exact 1.0 restore once every window closes.
                    chaos_mult[ev_chip] = math.prod(factors) if factors else 1.0
                    chaos_log.append({
                        "at_s": now, "kind": "slow_end", "chip": ev_chip,
                        "multiplier": ev_mult,
                    })

        # -- arrival feed priming ------------------------------------------
        offered = 0  # arrivals taken from the feed, for conservation
        if source is not None:
            chunks = (source.bind(
                lambda at_s, user: heappush(
                    heap, (at_s, _ARRIVAL, next_seq(), user)
                )
            ),)
        chunk_iter = iter(chunks)

        def next_chunk():
            """Columns of the next non-empty chunk, or ``None`` at the end."""
            nonlocal bulk_cols, fill_cols, codes_cache, arrf_cache, fill_skip
            nonlocal offered
            bulk_cols = None
            fill_cols = None
            codes_cache = None
            arrf_cache = None
            fill_skip = 0
            for arrivals, names, ids in chunk_iter:
                if not (len(arrivals) == len(names) == len(ids)):
                    raise ServingError(
                        "columnar chunk has mismatched column lengths"
                    )
                if len(arrivals):
                    offered += len(arrivals)
                    return arrivals, names, ids
            return None

        columns = next_chunk()
        if columns is None:
            raise ServingError("cannot simulate an empty request stream")
        arrivals, names, ids = columns
        index = 0
        limit = len(arrivals)
        exhausted = False

        first_arrival = arrivals[0]
        horizon = first_arrival
        prev_arrival = -float("inf")
        prev_id = -1
        # Deferred runs bar the eager inline dispatch (and with it the bulk
        # run): every batch must park a pending emit so a failure can kill
        # it and a controller can observe it complete.
        eager = shortcuts_trusted and policy.eager_singleton and not deferred
        # Per-chip singleton (service, energy) rows — the eager path's
        # tuple-key-free view of the memoized service table.
        singleton_tables: list[dict] = [{} for _ in range(num_chips)]
        # Idle chips a same-instant burst enqueued on, by chip id.
        touched: dict[int, _SlotChip] = {}

        # -- chunked clock advance -----------------------------------------
        # When the event heap is empty, every chip is idle with an empty
        # queue (an eager policy dispatches the moment work meets an idle
        # chip, and schedules no wake-ups), so the simulation's future is a
        # pure function of upcoming arrivals.  A maximal *idle-disjoint
        # run* — consecutive arrivals where each request's singleton
        # service finishes strictly before the next arrival — then plays
        # out as one vectorized span: every request dispatches alone at its
        # own arrival on the chip the router picks for an all-idle fleet
        # (jsq: chip 0; affinity pools: lowest owner; round-robin: the
        # cycling counter).  Only the run's last request leaves through the
        # heap, because its boundary against the next event is unchecked.
        # Requires trusted eager-singleton shortcuts and a builtin router;
        # round-robin additionally needs one shared service oracle since
        # its assignment strides across every chip.
        bulk_mode = None
        if self.vectorize and eager and route_mode != "generic":
            if route_mode != "rr" or len(model_index) == 1:
                bulk_mode = route_mode
        wl_code = {name: code for code, name in enumerate(workloads)}
        bulk_rows: dict[str, tuple] = {}
        bulk_cols = None  # lazily-built per-chunk arrays

        # -- water-fill dispatch -------------------------------------------
        # The saturated complement of the idle-disjoint run: while *every*
        # chip is busy, an arrival is a pure enqueue — the eager path is
        # barred, ``dispatch`` refuses busy chips, and nothing pushes heap
        # events — so every arrival at or before ``heap[0][0]`` (arrivals
        # outrank completions and wake-ups at the same instant) resolves
        # before the next event pops.  JSQ routing of such a run is a
        # deterministic water fill over the frozen per-chip ``pending``
        # depths: repeated argmin with ties to the lower chip id fills
        # depth levels bottom-up, each level pass handing one request to
        # every chip at or below it in ascending chip-id order, and once
        # all chips level out the remainder is a pure round-robin.  The
        # whole span therefore routes as a short catch-up prefix plus
        # strided slices, byte-identical to the per-arrival scan.
        fill_mode = self.vectorize and route_mode == "jsq" and not deferred
        # Spans too short for the water fill (and every saturated span of
        # other routers and of deferred runs) drain in one pass of the
        # arrival loop, bounded by the heap head while ``busy_count`` is at
        # this count.
        saturated_count = num_chips if self.vectorize else -1
        fill_cols = None  # lazily-built per-chunk fill arrays
        # Position the chunk must reach before the next fill attempt: a
        # span that came up shorter than FILL_MIN_RUN stays short for every
        # later start inside it (the bounding heap head cannot change while
        # the whole fleet is busy), so re-checking per arrival would buy
        # nothing and cost two binary searches each.
        fill_skip = 0
        bulk_runs_n = 0
        bulk_requests_n = 0
        fill_spans_n = 0
        fill_requests_n = 0

        codes_cache = None
        arrf_cache = None

        def chunk_codes(names):
            """Workload codes (``-1`` unknown) for the chunk, computed once.

            Shared by ``bulk_prepare`` and ``fill_prepare`` so a chunk's
            names column is scanned at most once per chunk regardless of
            how many span kinds fire.  ``map`` over the bound dict getter
            feeds ``fromiter`` straight from C; the interned-string hash
            beats building a unicode array and binary-searching it.
            """
            nonlocal codes_cache
            if codes_cache is None:
                try:
                    codes_cache = np.fromiter(
                        map(wl_code.__getitem__, names),
                        dtype=np.int64,
                        count=len(names),
                    )
                except (KeyError, TypeError):
                    # Unknown (or unhashable) workloads: the slow scan maps
                    # them to -1 so spans route them to the scalar path.
                    codes_cache = np.fromiter(
                        (
                            wl_code.get(name, -1) if isinstance(name, str)
                            else -1
                            for name in names
                        ),
                        dtype=np.int64,
                        count=len(names),
                    )
            return codes_cache

        def chunk_arrf(arrivals):
            """The chunk's arrival column as float64, converted once."""
            nonlocal arrf_cache
            if arrf_cache is None:
                arrf_cache = np.asarray(arrivals, dtype=float)
            return arrf_cache

        def bulk_row(name):
            """``(service_s, energy_j, chip_id, code)`` for a lone ``name``.

            Resolved on the chip an all-idle fleet routes the workload to.
            Any failure — unknown workload, unroutable workload, service
            oracle error, degenerate cost — encodes as service ``-1.0``,
            which bars the request from every run so the scalar path raises
            its exact error at the exact request.
            """
            invalid = (-1.0, 0.0, -1, -1)
            code = wl_code.get(name, -1)
            if code < 0:
                return invalid
            if bulk_mode == "owners":
                candidates = owner_chips.get(name)
                if candidates is None:
                    return invalid
                chip_id = candidates[0].chip_id
            else:
                chip_id = 0
            try:
                return (*_service_cost(chip_models[chip_id], name, 1), chip_id, code)
            except Exception:
                return invalid

        def bulk_prepare(arrivals, names):
            """Per-chunk arrays driving the run scan, built once per chunk.

            Rows are resolved once per *workload* and fanned out to the
            chunk through its code column — the per-request work is numpy
            table lookups, not a python loop over names.  A request whose
            workload falls outside ``workloads`` (code ``-1``) reads the
            table's trailing invalid row; a known workload whose service
            oracle fails gets an invalid row of its own.  Either way the
            request is barred from every run and the scalar path raises
            its exact error at the exact request.
            """
            arr = chunk_arrf(arrivals)
            n = len(arr)
            codes = chunk_codes(names)
            num_workloads = len(workloads)
            svc_tab = np.full(num_workloads + 1, -1.0)
            en_tab = np.zeros(num_workloads + 1)
            chip_tab = np.full(num_workloads + 1, -1, dtype=np.int64)
            for code in np.unique(codes).tolist():
                if code < 0:
                    continue
                name = workloads[code]
                row = bulk_rows.get(name)
                if row is None:
                    bulk_rows[name] = row = bulk_row(name)
                svc_tab[code] = row[0]
                en_tab[code] = row[1]
                chip_tab[code] = row[2]
            slots = np.where(codes < 0, num_workloads, codes)
            svc = svc_tab[slots]
            svc_list = svc.tolist()
            en_list = en_tab[slots].tolist()
            chip_arr = chip_tab[slots]
            ok = svc >= 0.0
            fin = arr + svc
            # chain[i]: request i+1 may extend a run through i — request
            # i's singleton service is positive and finishes strictly
            # before arrival i+1 (at equality the scalar core processes
            # the arrival first and sees a busy chip), and both rows are
            # servable.  solo[i]: arrival i+1 is a later instant than i,
            # required of a run's last member so it cannot have been
            # batched with a simultaneous successor.  Both are False at
            # the chunk's last index: its successor is unseen.
            chain = np.zeros(n, dtype=bool)
            solo = np.zeros(n, dtype=bool)
            if n > 1:
                chain[:-1] = (
                    (arr[1:] > fin[:-1]) & (svc[:-1] > 0.0) & ok[:-1] & ok[1:]
                )
                solo[:-1] = arr[1:] > arr[:-1]
            breaks = np.flatnonzero(~chain)
            run_chip_ids = chip_arr if bulk_mode == "owners" else None
            return arr, fin, svc_list, en_list, run_chip_ids, codes, solo, breaks

        def fill_prepare(arrivals, names, ids):
            """Per-chunk arrays driving the water-fill span scan.

            Returns ``(arr, codes, ids_arr, guards)``; ``guards`` lists
            (ascending, terminated by the chunk length) every position a
            span must not cross: a request whose workload is outside
            ``workloads`` (the scalar path owns whatever error it raises
            later) or whose ``(arrival_s, request_id)`` does not strictly
            follow its predecessor (the scalar path raises the exact
            sorting error at the exact request).  ``None`` when the columns
            resist vectorized comparison (e.g. mixed request-id types) —
            the chunk then routes entirely through the scalar path.
            """
            try:
                arr = chunk_arrf(arrivals)
                n = len(arr)
                codes = chunk_codes(names)
                ids_arr = np.asarray(ids)
                bad = codes < 0
                if n > 1:
                    bad[1:] |= (arr[1:] < arr[:-1]) | (
                        (arr[1:] == arr[:-1]) & (ids_arr[1:] <= ids_arr[:-1])
                    )
                guards = np.append(np.flatnonzero(bad), n)
            except Exception:
                return None
            return arr, codes, ids_arr, guards

        while True:
            if not exhausted:
                if (
                    bulk_mode is not None
                    and not heap
                    and index + 2 < limit
                    and arrivals[index] > prev_arrival
                ):
                    if bulk_cols is None:
                        # Probe the run's first link before materializing
                        # the whole chunk's run arrays: a run starting here
                        # needs this request's singleton service to finish
                        # strictly before the next arrival.  Under
                        # saturation the first link always fails, and the
                        # probe (one memoized row plus a compare, float64
                        # arithmetic identical to the chained scan's)
                        # spares the chunk-wide table build; a failed probe
                        # leaves ``bulk_cols`` unbuilt so the next idle
                        # moment probes again.
                        row = bulk_rows.get(names[index])
                        if row is None:
                            bulk_rows[names[index]] = row = bulk_row(
                                names[index]
                            )
                        if (
                            row[0] > 0.0
                            and arrivals[index + 1] > arrivals[index] + row[0]
                        ):
                            bulk_cols = bulk_prepare(arrivals, names)
                if (
                    bulk_cols is not None
                    and not heap
                    and index + 2 < limit
                    and arrivals[index] > prev_arrival
                ):
                    (arr_np, fin_np, svc_list, en_list, run_chip_ids,
                     codes_np, solo, breaks) = bulk_cols
                    start = index
                    stop = int(breaks[np.searchsorted(breaks, start)])
                    end = stop if solo[stop] else stop - 1
                    if end - start + 1 >= BULK_MIN_RUN:
                        length = end + 1 - start
                        run_fin = fin_np[start:end + 1]
                        if bulk_mode == "jsq":
                            chip = chips[0]
                            chip.busy_s = sum(
                                svc_list[start:end + 1], chip.busy_s
                            )
                            chip.served += length
                            chip_spec = 0
                            last_chip = chip
                        elif bulk_mode == "rr":
                            rr0 = rr_next
                            spread = num_chips if num_chips < length else length
                            for offset in range(spread):
                                chip = chips[(rr0 + offset) % num_chips]
                                seg = svc_list[start + offset:end + 1:num_chips]
                                chip.busy_s = sum(seg, chip.busy_s)
                                chip.served += len(seg)
                            rr_next = rr0 + length
                            chip_spec = (rr0 + np.arange(length)) % num_chips
                            last_chip = chips[(rr0 + length - 1) % num_chips]
                        else:  # owners
                            chip_spec = run_chip_ids[start:end + 1]
                            for chip_id in np.unique(chip_spec):
                                chip = chips[chip_id]
                                seg = [
                                    svc_list[start + i]
                                    for i in np.flatnonzero(chip_spec == chip_id)
                                ]
                                chip.busy_s = sum(seg, chip.busy_s)
                                chip.served += len(seg)
                            last_chip = chips[run_chip_ids[end]]
                        # Left-fold sums over python floats reproduce the
                        # scalar loop's accumulation order bit-for-bit.
                        energy = sum(en_list[start:end + 1], energy)
                        num_batches += length
                        served += length
                        bulk_runs_n += 1
                        bulk_requests_n += length
                        # The run's trailing boundary is unchecked: the
                        # last request may still be executing when the next
                        # event fires, so it leaves through the heap like
                        # any scalar dispatch.
                        last_chip.busy = True
                        busy_count += 1
                        last_chip.inflight = 1
                        last_chip.pending += 1
                        if jsq_index is not None:
                            jsq_index.move(
                                last_chip.chip_id,
                                last_chip.pending - 1,
                                last_chip.pending,
                            )
                        heappush(
                            heap,
                            (float(run_fin[-1]), _FREE, next_seq(),
                             last_chip.chip_id),
                        )
                        emit_run(
                            chip_spec,
                            arr_np[start:end + 1],
                            run_fin,
                            names[start:end + 1],
                            codes_np[start:end + 1],
                            ids[start:end + 1],
                        )
                        prev_arrival = arrivals[end]
                        prev_id = ids[end]
                        index = end + 1
                        continue
                if (
                    fill_mode
                    and busy_count == num_chips
                    and index >= fill_skip
                    and fill_cols is not False
                    and arrivals[index] > prev_arrival
                    # O(1) reach probe before any numpy work: a span of
                    # FILL_MIN_RUN needs the arrival that many ahead to land
                    # at or before the bounding heap head (every busy chip
                    # holds a FREE event, so the heap is non-empty).  Under
                    # nominal load this fails almost every time the fleet
                    # blips to all-busy, and the two binary searches it
                    # replaces were costing more than the scalar arrivals
                    # they guarded.
                    and index + FILL_MIN_RUN <= limit
                    and arrivals[index + FILL_MIN_RUN - 1] <= heap[0][0]
                ):
                    if fill_cols is None:
                        fill_cols = fill_prepare(arrivals, names, ids)
                        if fill_cols is None:
                            fill_cols = False
                    if fill_cols is not False:
                        f_arr, f_codes, f_ids, f_guards = fill_cols
                        # Every busy chip holds an un-popped FREE event, so
                        # the heap is non-empty and its head bounds the span.
                        stop = int(
                            np.searchsorted(f_arr, heap[0][0], side="right")
                        )
                        first_guard = int(
                            f_guards[np.searchsorted(f_guards, index + 1)]
                        )
                        if first_guard < stop:
                            stop = first_guard
                        k = stop - index
                        if k < FILL_MIN_RUN or f_codes[index] < 0:
                            fill_skip = (
                                index + 1
                                if f_codes[index] < 0
                                else max(stop, index + 1)
                            )
                        else:
                            # Catch-up prefix: walk level passes until every
                            # chip reaches the fleet's top depth (or the run
                            # drains), each pass handing one arrival to each
                            # active chip in ascending chip-id order.  Its
                            # length is bounded by num_chips * depth-spread,
                            # tiny next to a saturated run.
                            pairs = sorted(
                                (chip.pending, chip.chip_id) for chip in chips
                            )
                            prefix = []
                            active = []
                            level = pairs[0][0]
                            ci = 0
                            t = 0
                            while ci < num_chips:
                                chip_depth, cid = pairs[ci]
                                if chip_depth > level:
                                    passes = chip_depth - level
                                    width = len(active)
                                    if t + passes * width >= k:
                                        full, part = divmod(k - t, width)
                                        for _ in range(full):
                                            prefix.extend(active)
                                        prefix.extend(active[:part])
                                        t = k
                                        break
                                    for _ in range(passes):
                                        prefix.extend(active)
                                    t += passes * width
                                    level = chip_depth
                                insort(active, cid)
                                ci += 1
                            pos_lists = [[] for _ in range(num_chips)]
                            for j, cid in enumerate(prefix):
                                pos_lists[cid].append(j)
                            for chip in chips:
                                cid = chip.chip_id
                                # Past the prefix the fill is round-robin in
                                # chip-id order, so a chip's share is a
                                # strided slice of the span.
                                tail = np.arange(
                                    index + t + cid, index + k, num_chips
                                )
                                head = pos_lists[cid]
                                count = len(head) + len(tail)
                                if not count:
                                    continue
                                if head:
                                    pos = np.concatenate(
                                        (
                                            np.array(head, dtype=np.int64)
                                            + index,
                                            tail,
                                        )
                                    )
                                else:
                                    pos = tail
                                sub_codes = f_codes[pos]
                                order = np.argsort(sub_codes, kind="stable")
                                sorted_codes = sub_codes[order]
                                seg_bounds = (
                                    np.flatnonzero(
                                        sorted_codes[1:] != sorted_codes[:-1]
                                    )
                                    + 1
                                )
                                starts = [0, *seg_bounds.tolist(), count]
                                segments = [
                                    order[starts[s]:starts[s + 1]]
                                    for s in range(len(starts) - 1)
                                ]
                                # The scalar enqueue creates a chip's
                                # workload groups in first-occurrence order,
                                # and dict order is observable through
                                # ``plan``; replay segments in that order.
                                segments.sort(key=lambda seg: seg[0])
                                groups = chip.groups
                                for seg in segments:
                                    p = pos[seg]
                                    name = names[int(p[0])]
                                    group = groups.get(name)
                                    if group is None:
                                        groups[name] = group = _Group()
                                    group.arrs.extend(f_arr[p].tolist())
                                    group.rids.extend(f_ids[p].tolist())
                                chip.depth += count
                                chip.pending += count
                            if jsq_index is not None:
                                jsq_index.rebuild()
                            fill_spans_n += 1
                            fill_requests_n += k
                            prev_arrival = arrivals[stop - 1]
                            prev_id = ids[stop - 1]
                            index = stop
                            if index == limit:
                                columns = next_chunk()
                                if columns is None:
                                    exhausted = True
                                else:
                                    arrivals, names, ids = columns
                                    index = 0
                                    limit = len(arrivals)
                            continue
                arrival_s = arrivals[index]
                if not heap or heap[0][0] >= arrival_s:
                    # The one arrival loop.  Arrivals outrank heap events
                    # at a tie, so it takes every arrival up to ``bound``
                    # before the next event pops.  While every chip is busy
                    # that is the heap head: each arrival is a pure enqueue
                    # (the water fill's argument), and the head — every
                    # chip's FREE event or an earlier chaos, controller or
                    # session event — cannot change until it pops.  Else it
                    # is this instant, so a simultaneous burst forms one
                    # batch instead of its first request stealing an idle
                    # chip alone; the idle chips the burst enqueued on
                    # dispatch after it, in chip-id order.  A lone arrival
                    # dispatches at once (under an eager policy, on an idle
                    # chip with an empty queue, as a singleton that skips
                    # the queue).  A busy chip is never touched, so a
                    # saturated span dispatches nothing.
                    if busy_count == saturated_count:
                        bound = heap[0][0]
                        lone = False
                    else:
                        bound = arrival_s
                        lone = (
                            index + 1 < limit and arrivals[index + 1] != bound
                        )
                    while True:
                        workload = names[index]
                        request_id = ids[index]
                        if arrival_s < prev_arrival or (
                            arrival_s == prev_arrival and request_id <= prev_id
                        ):
                            raise ServingError(
                                "request stream is not sorted by "
                                "(arrival_s, request_id) or repeats a request "
                                f"id near request {request_id}"
                            )
                        prev_arrival = arrival_s
                        prev_id = request_id
                        index += 1

                        if route_mode == "jsq":
                            chosen = jsq_take()
                        elif route_mode == "owners":
                            candidates = owner_chips.get(workload)
                            if candidates is None:
                                # Unrouteable workload: the router raises its
                                # own (exact) error message.
                                route_generic(
                                    Request(request_id, workload, arrival_s),
                                    chips,
                                )
                                raise ServingError(  # pragma: no cover
                                    f"router failed on workload '{workload}'"
                                )
                            chosen = candidates[0]
                            best = chosen.pending
                            for candidate in candidates:
                                if candidate.pending < best:
                                    best = candidate.pending
                                    chosen = candidate
                        elif route_mode == "rr":
                            chosen = rr_chips[rr_next % rr_size]
                            rr_next += 1
                        else:
                            chosen = chips[
                                route_generic(
                                    Request(request_id, workload, arrival_s),
                                    chips,
                                )
                            ]

                        if admit is None or admit(chosen, workload, arrival_s):
                            if lone and eager and not (
                                chosen.busy or chosen.depth
                            ):
                                # Immediate singleton batch.
                                singletons = singleton_tables[chosen.chip_id]
                                cached = singletons.get(workload)
                                if cached is None:
                                    cached = _service_cost(
                                        chip_models[chosen.chip_id], workload, 1
                                    )
                                    singletons[workload] = cached
                                    service_table[
                                        chip_model_keys[chosen.chip_id], workload, 1
                                    ] = cached
                                service_s, energy_j = cached
                                finish = arrival_s + service_s
                                energy += energy_j
                                num_batches += 1
                                served += 1
                                chosen.busy = True
                                busy_count += 1
                                chosen.inflight = 1
                                chosen.pending += 1
                                chosen.busy_s += service_s
                                chosen.served += 1
                                emit(
                                    chosen.chip_id, arrival_s, finish, 1,
                                    workload, ((arrival_s,), (request_id,)),
                                )
                                heappush(
                                    heap,
                                    (finish, _FREE, next_seq(), chosen.chip_id),
                                )
                                break
                            group = chosen.groups.get(workload)
                            if group is None:
                                chosen.groups[workload] = group = _Group()
                            group.append(arrival_s, request_id)
                            chosen.depth += 1
                            chosen.pending += 1
                            if not chosen.busy:
                                if lone:
                                    dispatch(chosen, bound)
                                else:
                                    touched[chosen.chip_id] = chosen
                        if lone:
                            break

                        if index == limit:
                            columns = next_chunk()
                            if columns is None:
                                exhausted = True
                                break
                            arrivals, names, ids = columns
                            index = 0
                            limit = len(arrivals)
                        arrival_s = arrivals[index]
                        if arrival_s > bound:
                            break
                    if touched:
                        for chip_id in sorted(touched):
                            dispatch(touched[chip_id], bound)
                        touched.clear()
                    continue
            elif not heap:
                break

            now, kind, seq, payload = heappop(heap)
            if kind == _FREE:
                chip = chips[payload]
                if deferred:
                    # Completion was not certain at dispatch: account for
                    # the parked batch now, unless a failure killed it.
                    entry = chip.pending_emit
                    if entry is None or entry[0] != seq:
                        continue  # stale completion of a killed batch
                    (_, dispatch_s, finish_s, count, workload, members,
                     service_s, energy_j, scaled) = entry
                    chip.pending_emit = None
                    if scaled and scaled_energy is not None:
                        # ``num_batches`` counts the batches emitted so far.
                        scaled_energy[num_batches] = energy_j
                    energy += energy_j
                    num_batches += 1
                    served += count
                    chip.busy_s += service_s
                    chip.served += count
                    emit(payload, dispatch_s, finish_s, count, workload, members)
                    if source is not None:
                        source.advance(finish_s, members[1])
                # Horizon advances on completions only: a stale batching
                # wake-up scheduled past the last finish must not stretch
                # the active span (which would deflate throughput and
                # utilization for timeout policies).
                if now > horizon:
                    horizon = now
                chip.busy = False
                busy_count -= 1
                if jsq_index is not None and chip.inflight:
                    jsq_index.move(
                        payload, chip.pending, chip.pending - chip.inflight
                    )
                chip.pending -= chip.inflight
                chip.inflight = 0
                dispatch(chip, now)
                if controller is not None:
                    controller.completed(chip, service_s, finish_s, members[0])
            elif kind == _WAKE:  # re-check a timed-out partial batch
                chip = chips[payload]
                if chip.pending_wake_s is not None and chip.pending_wake_s <= now:
                    chip.pending_wake_s = None
                dispatch(chip, now)
            elif kind == _ARRIVAL:
                # Closed-loop submissions: every user due at this instant
                # (arrivals pop first at an instant) becomes one chunk for
                # the arrival loop.
                due = [payload]
                while heap and heap[0][0] == now and heap[0][1] == _ARRIVAL:
                    due.append(heappop(heap)[3])
                arrivals, names, ids = source.submit(now, due)
                index = 0
                limit = len(arrivals)
                offered += limit
                exhausted = False
            elif kind == _CHAOS:
                chaos_step(now, payload)
            else:  # a controller event (a _WARM payload is not a chip)
                if kind == _WARM:
                    acted = controller.warm(now, payload)
                else:
                    acted = controller.tick(now)
                    # Keep ticking while work can still arrive or progress;
                    # queues stranded on down chips do not hold the clock.
                    if not exhausted or any(
                        chip.busy
                        or (chip.depth and not chaos_down[chip.chip_id])
                        for chip in chips
                    ):
                        heappush(
                            heap, (now + interval_s, _TICK, next_seq(), None)
                        )
                if acted:  # re-read the batch cap and the routing set
                    single_cap = (
                        policy.single_group_cap if shortcuts_trusted else None
                    )
                    route_mode, rr_chips, rr_size, jsq_take, jsq_index = (
                        route_active()
                    )

        if deferred:
            # Requests still queued when the event heap drained can only
            # sit on a chip whose failure window never closed: count them
            # shed (never dispatched, never completed) so conservation
            # holds even for unrecovered outages.
            for chip in chips:
                stranded = chip.depth
                if stranded:
                    for group in chip.groups.values():
                        drop(group.arrs[group.head:])
                    chip.groups.clear()
                    chip.depth = 0
                    chip.pending -= stranded
                    shed_at.extend(itertools.repeat(horizon, stranded))
                    chaos_log.append({
                        "at_s": horizon, "kind": "stranded",
                        "chip": chip.chip_id, "requests_shed": stranded,
                    })
        if served + chaos_lost + len(shed_at) != offered:
            raise ServingError(
                f"simulation lost requests: {served} served + {chaos_lost} "
                f"lost + {len(shed_at)} shed of {offered}"
            )
        if controller is not None:
            chips = chips[:len(controller.state)]
        return _Outcome(
            chips, energy, num_batches, horizon, first_arrival, served,
            chaos_lost, shed_at, tuple(chaos_log),
            {
                "bulk_runs": bulk_runs_n,
                "bulk_run_requests": bulk_requests_n,
                "water_fill_spans": fill_spans_n,
                "water_fill_requests": fill_requests_n,
                "scalar_requests": served - bulk_requests_n - fill_requests_n,
            },
            fill_mode,
        )
