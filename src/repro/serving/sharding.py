"""Sharded serving simulation: router-independent sub-fleets in isolation.

A fleet whose router never moves load between two chip groups — round-robin
(each chip's request subsequence is a pure function of the global arrival
index) or any ownership-table affinity router (a workload's pool is served
only by its owner chips) — factors into *components* that simulate
independently: no event on one component's chips can influence another's
routing, batching or timing.  ``ServingSimulator.run`` and ``run_stream``
hand every ``shards != 1`` run to one private driver, :func:`_run_sharded`,
which exploits that factorization three ways:

* **component planning** (:func:`plan_components`) — union-find over the
  router's ownership pools (or one component per chip for round-robin)
  decides what can split.  Join-shortest-queue couples every chip and a
  chaos timeline's incident accounting is fleet-global; both run on the
  single-shard core, recording why in ``provenance["shard_fallback"]``.
* **a columnar single-chip engine** — a component that is one chip under a
  trusted builtin batching policy skips the generic event core entirely:
  arrivals stay as numpy columns, queues are cursor pairs over per-workload
  slices, and the policy's ``plan`` runs once per *batch* instead of
  touching per-request state.  The batch log it keeps is its result.
  This is where saturated regimes (standing queues, large batches) gain
  their multiple over the scalar loop.  Other components run the generic
  core, whose emits decode into the same kind of log.
* **deterministic merge** — every component returns its batch log
  (:class:`~repro.serving.simulator._BatchLog`) plus accounting; the logs
  concatenate and the accounting folds once.  ``run`` builds its record
  table from the merged log (records exactly equal to the single-shard
  run), ``run_stream`` reads its latencies in the canonical
  ``(dispatch_s, chip, batch)`` order, and both derive telemetry from the
  log, so batches a chip dispatches at one instant stay apart.  Energy
  is summed per component and then across components, which can differ
  from the single-shard global interleave by an ulp — every other float
  is bit-identical.

Components optionally fan out to worker processes
(``concurrent.futures.ProcessPoolExecutor``) when the service models are
plain registry-backed ``ExecutionCache`` instances; anything unshippable
(custom oracles, custom policies that fail to pickle) degrades to
sequential in-process execution, never to wrong answers.

``provenance["cached_reports"]`` counts what the fleet cached wherever
the components ran: pooled workers return the ``(workload, batch)`` keys
their caches hold, and the run reports the size of their union with the
parent cache's keys, so ``repro serve steady --chips 4 --router
round_robin --shards 2`` reads 4 like the unsharded run.
"""

from __future__ import annotations

import heapq
import itertools
import os
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

from repro.backends.cache import ExecutionCache
from repro.backends.registry import backend_names
from repro.errors import ServingError
from repro.serving.fleet import (
    FixedOwnersRouter,
    JoinShortestQueueRouter,
    RoundRobinRouter,
    SymbolicAffinityRouter,
    WorkloadAffinityRouter,
)
from repro.serving.simulator import (
    CHAOS_SHARD_FALLBACK,
    ServingResult,
    ServingSimulator,
    StreamedServingResult,
    _BatchLog,
    _EmitLog,
    _id_range_error,
    _plan_method,
    _service_cost,
)
from repro.serving.traffic import Request

__all__ = ["plan_components"]


class _ShardPlan(NamedTuple):
    """How the fleet factors into router-independent components."""

    #: ``"rr"`` (one component per chip, assignment by global arrival index)
    #: or ``"owners"`` (components from the router's ownership pools)
    mode: str
    #: ascending global chip ids of every component, ordered by lowest chip
    components: tuple[tuple[int, ...], ...]
    #: workload name -> component index (``owners`` mode only)
    comp_of_workload: dict[str, int] | None


def plan_components(router, num_chips: int):
    """Factor the fleet under ``router``, or say why it cannot split.

    Returns a :class:`_ShardPlan` when the fleet factors into at least two
    independent components, else a human-readable fallback reason string
    (recorded in the result's provenance as ``shard_fallback``).
    """
    if num_chips < 2:
        return "a single-chip fleet has nothing to shard"
    router_type = type(router)
    if router_type is RoundRobinRouter:
        return _ShardPlan(
            "rr", tuple((chip,) for chip in range(num_chips)), None
        )
    if router_type is JoinShortestQueueRouter:
        return "join-shortest-queue routing couples every chip"
    if router_type in (
        WorkloadAffinityRouter, SymbolicAffinityRouter, FixedOwnersRouter
    ):
        # Union-find over ownership pools: chips sharing any workload's
        # pool must simulate together.
        parent = list(range(num_chips))

        def find(chip):
            root = chip
            while parent[root] != root:
                root = parent[root]
            while parent[chip] != root:
                parent[chip], chip = root, parent[chip]
            return root

        owned = set()
        for pool in router.owners.values():
            first = find(pool[0])
            owned.add(pool[0])
            for chip in pool[1:]:
                owned.add(chip)
                parent[find(chip)] = first
        # Only owned chips form components; unowned chips can never receive
        # a request and contribute all-zero accounting rows at merge time.
        members: dict[int, list[int]] = {}
        for chip in sorted(owned):
            members.setdefault(find(chip), []).append(chip)
        components = tuple(
            tuple(chips)
            for chips in sorted(members.values(), key=lambda chips: chips[0])
        )
        if len(components) < 2:
            return "the router's ownership pools couple every chip"
        comp_index = {chips[0]: index for index, chips in enumerate(components)}
        comp_of_workload = {
            workload: comp_index[find(pool[0])]
            for workload, pool in router.owners.items()
        }
        return _ShardPlan("owners", components, comp_of_workload)
    name = getattr(router, "name", router_type.__name__)
    return f"router '{name}' has unknown chip coupling"


class _CompBundle(NamedTuple):
    """One component's finished simulation: its batch log and accounting."""

    #: the component's batches, on global chip ids
    log: _BatchLog
    #: ``(global_chip_id, busy_s, served)`` for every chip of the component
    chip_rows: tuple
    energy: float
    num_batches: int
    horizon: float
    served: int


class _EngineGroup:
    """One workload's queue inside the columnar engine: two cursors.

    ``head``/``tail`` index into the workload's pre-extracted arrival and
    id columns — ingestion advances ``tail``, dispatch advances ``head`` —
    so enqueue and batch-pop are integer bumps, never per-request appends.
    Exposes the read-only sequence surface ``plan`` implementations use.
    """

    __slots__ = ("arrivals", "ids", "head", "tail")

    def __init__(self, arrivals: list, ids: list) -> None:
        self.arrivals = arrivals
        self.ids = ids
        self.head = 0
        self.tail = 0

    def __len__(self) -> int:
        return self.tail - self.head

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.tail - self.head)
            head = self.head
            return list(
                zip(
                    self.arrivals[head + start : head + stop : step],
                    self.ids[head + start : head + stop : step],
                )
            )
        if index < 0:
            index += self.tail - self.head
        position = self.head + index
        if not self.head <= position < self.tail:
            raise IndexError("group index out of range")
        return (self.arrivals[position], self.ids[position])

    def __iter__(self):
        return iter(
            list(
                zip(
                    self.arrivals[self.head : self.tail],
                    self.ids[self.head : self.tail],
                )
            )
        )


def _engine_run(
    policy, model, global_chip: int, arr, ids, codes, workload_names
):
    """Columnar event engine for a one-chip component, batch-granularity.

    Preconditions (the dispatcher checks them): the component is a single
    chip, ``policy`` resolves to a trusted builtin ``plan``, and every code
    is a valid index into ``workload_names``.  The engine replays the exact
    decision sequence of the scalar core — same plan calls on the same
    queue states, same wake dedup, arrivals before completions before
    wake-ups at an instant — but does per-*request* work only as slice
    cursor arithmetic plus one vectorized finalize, so its cost scales with
    batches, not requests.
    """
    plan, _trusted = _plan_method(policy)
    single_cap = policy.single_group_cap
    wl_code = {name: code for code, name in enumerate(workload_names)}
    num_workloads = len(workload_names)

    arr_list = arr.tolist()
    code_list = codes.tolist()
    n = len(arr_list)
    positions_by_code = []
    position_lists = []
    groups_by_code = []
    for code in range(num_workloads):
        positions = np.flatnonzero(codes == code)
        positions_by_code.append(positions)
        position_lists.append(positions.tolist())
        groups_by_code.append(
            _EngineGroup(arr[positions].tolist(), ids[positions].tolist())
        )
    active: dict[str, _EngineGroup] = {}

    events: list[tuple] = []  # (time, kind, seq): 1=FREE, 2=WAKE
    next_seq = itertools.count().__next__
    heappush = heapq.heappush
    heappop = heapq.heappop

    busy = False
    t_free = 0.0
    pending_wake = None
    depth = 0
    energy = 0.0
    busy_s = 0.0
    served = 0
    horizon = arr_list[0]
    service_memo: dict[tuple[str, int], tuple[float, float]] = {}
    batch_code: list[int] = []
    batch_disp: list[float] = []
    batch_fin: list[float] = []
    batch_count: list[int] = []

    # Small ingests walk the arrivals directly (a request's slot in its
    # workload column is always the current tail — columns are in arrival
    # order); past this span, one bisect per workload wins.
    ingest_walk_max = 8 * num_workloads

    def ingest(start: int, bound: int) -> None:
        """Advance every workload tail over global indices < ``bound``."""
        nonlocal depth
        count = bound - start
        if count <= ingest_walk_max:
            for i in range(start, bound):
                code = code_list[i]
                group = groups_by_code[code]
                tail = group.tail
                group.tail = tail + 1
                if tail == group.head:
                    active[workload_names[code]] = group
            depth += count
            return
        for code in range(num_workloads):
            plist = position_lists[code]
            group = groups_by_code[code]
            tail = group.tail
            if tail == len(plist):
                continue
            new_tail = bisect_left(plist, bound, tail)
            if new_tail > tail:
                group.tail = new_tail
                depth += new_tail - tail
                if tail == group.head:
                    active[workload_names[code]] = group

    def dispatch(now: float) -> None:
        nonlocal busy, t_free, pending_wake, depth, energy, busy_s, served
        if busy or not depth:
            return
        if len(active) == 1 and single_cap is not None:
            workload, group = next(iter(active.items()))
            queued = group.tail - group.head
            count = single_cap if queued > single_cap else queued
            wake_s = None
        else:
            workload, count, wake_s = plan(active, now)
        if workload is None:
            if (
                wake_s is not None
                and wake_s > now
                and (pending_wake is None or wake_s < pending_wake)
            ):
                heappush(events, (wake_s, 2, next_seq()))
                pending_wake = wake_s
            return
        group = active[workload]
        queued = group.tail - group.head
        if count < 1 or count > queued:
            raise ServingError(
                f"batch of {count} requested from a queue of {queued}"
            )
        group.head += count
        if group.head == group.tail:
            del active[workload]
        depth -= count
        key = (workload, count)
        cached = service_memo.get(key)
        if cached is None:
            cached = _service_cost(model, workload, count)
            service_memo[key] = cached
        service_s, energy_j = cached
        finish = now + service_s
        energy += energy_j
        busy_s += service_s
        served += count
        batch_code.append(wl_code[workload])
        batch_disp.append(now)
        batch_fin.append(finish)
        batch_count.append(count)
        busy = True
        t_free = finish
        heappush(events, (finish, 1, next_seq()))

    g = 0
    while True:
        if events:
            if g < n and arr_list[g] <= events[0][0]:
                # Arrivals precede completions and wake-ups at an instant.
                if busy:
                    # Enqueue-only window: no dispatch can happen before
                    # the running batch finishes, so ingest every arrival
                    # up to (and at) that boundary in one slice.  Wake
                    # pops commute with enqueues — neither reads state
                    # the other writes — so reordering them is safe.
                    bound = bisect_right(arr_list, t_free, g)
                else:
                    bound = bisect_right(arr_list, arr_list[g], g)
                now = arr_list[g]
                ingest(g, bound)
                g = bound
                if not busy:
                    dispatch(now)
                continue
            now, kind, _seq = heappop(events)
            if kind == 1:  # FREE
                if now > horizon:
                    horizon = now
                busy = False
                dispatch(now)
            else:  # WAKE
                if pending_wake is not None and pending_wake <= now:
                    pending_wake = None
                dispatch(now)
        elif g < n:
            now = arr_list[g]
            bound = bisect_right(arr_list, now, g)
            ingest(g, bound)
            g = bound
            dispatch(now)
        else:
            break

    # Batches consume each workload's queue strictly front to back, so with
    # the batches grouped by workload their members are the leading
    # entries of each workload's arrival-order positions.
    code = np.asarray(batch_code, dtype=np.int64)
    size = np.asarray(batch_count, dtype=np.int64)
    by_code = np.argsort(code, kind="stable")
    members = np.concatenate([
        positions_by_code[workload][:int(size[code == workload].sum())]
        for workload in range(num_workloads)
    ])
    grouped = _BatchLog(
        np.full(len(code), global_chip, dtype=np.int64),
        np.asarray(batch_disp, dtype=float)[by_code],
        np.asarray(batch_fin, dtype=float)[by_code],
        size[by_code],
        code[by_code],
        arr[members],
        ids[members],
    )
    return _CompBundle(
        log=grouped.reordered(np.argsort(by_code)),
        chip_rows=((global_chip, busy_s, served),),
        energy=energy,
        num_batches=len(batch_code),
        horizon=horizon,
        served=served,
    )


class _Job(NamedTuple):
    """One component's simulation input."""

    models: tuple
    router: object
    global_chips: tuple[int, ...]
    arr: np.ndarray
    ids: np.ndarray
    codes: np.ndarray


def _fallback_run(
    policy, models, router, global_chips, arr, ids, codes, workload_names,
    vectorize,
):
    """Run a component through the generic event core (any shape/policy).

    Used for multi-chip components and for policies without a trusted
    builtin ``plan``: a throwaway simulator shell drives
    ``ServingSimulator._simulate`` with the component's local router and
    per-chip oracles injected; its batch log moves to global chip ids.
    """
    shell = ServingSimulator.__new__(ServingSimulator)
    shell.batching_policy = policy
    shell.vectorize = vectorize
    # Shards never see a chaos timeline: _run_sharded falls back to the
    # single-shard core before it partitions anything.
    shell.chaos = None
    names = [workload_names[code] for code in codes.tolist()]
    chunks = [(arr.tolist(), names, ids.tolist())]
    emits = _EmitLog()
    outcome = shell._simulate(
        chunks, workload_names, emits.emit, emit_run=emits.emit_run,
        router=router, chip_models=list(models),
    )
    log = emits.take(workload_names)
    return _CompBundle(
        log=log._replace(chip=np.asarray(global_chips, dtype=np.int64)[log.chip]),
        chip_rows=tuple(
            (global_chips[index], chip.busy_s, chip.served)
            for index, chip in enumerate(outcome.chips)
        ),
        energy=outcome.energy,
        num_batches=outcome.num_batches,
        horizon=outcome.horizon,
        served=outcome.served,
    )


def _simulate_component(
    policy, models, router, global_chips, arr, ids, codes, workload_names,
    vectorize,
):
    """Route one component to the columnar engine or the generic core."""
    if len(global_chips) == 1 and vectorize:
        _plan, trusted = _plan_method(policy)
        if trusted:
            return _engine_run(
                policy, models[0], global_chips[0], arr, ids, codes,
                workload_names,
            )
    return _fallback_run(
        policy, models, router, global_chips, arr, ids, codes,
        workload_names, vectorize,
    )


def _model_spec(model):
    """A picklable rebuild recipe for ``model``, or ``None`` if unshippable.

    Only plain registry-backed :class:`ExecutionCache` instances ship to
    worker processes — a subclass or custom oracle may close over anything,
    so it pins its component to the parent process.
    """
    if type(model) is not ExecutionCache:
        return None
    if model.backend_name not in backend_names():
        return None
    try:
        params = tuple(
            sorted(
                (name, tuple(sorted(entries.items())))
                for name, entries in model.workload_params.items()
            )
        )
        hash(params)
    except TypeError:
        return None
    return (model.backend_name, model.scheduler, params)


#: per-worker-process ExecutionCache memo, keyed by model spec — components
#: sharing a backend inside one worker share one warm cache
_WORKER_MODELS: dict = {}


def _run_component_worker(payload):
    """Worker-process entry: rebuild the models, run the component.

    Returns ``(bundle, keys)``: ``keys`` maps each model spec to the
    ``(workload, batch)`` keys its worker cache holds, so the parent can
    report what the fleet cached.
    """
    (policy, specs, router, global_chips, arr, ids, codes, workload_names,
     vectorize) = payload
    models = []
    for spec in specs:
        model = _WORKER_MODELS.get(spec)
        if model is None:
            backend_name, scheduler, params = spec
            model = ExecutionCache(
                backend=backend_name,
                scheduler=scheduler,
                workload_params={
                    name: dict(entries) for name, entries in params
                },
            )
            _WORKER_MODELS[spec] = model
        models.append(model)
    bundle = _simulate_component(
        policy, models, router, global_chips, arr, ids, codes,
        workload_names, vectorize,
    )
    return bundle, {spec: _WORKER_MODELS[spec].report_keys for spec in specs}


def _run_components(sim, jobs, workload_names, workers):
    """Run every job, fanning out to worker processes when possible.

    Returns ``(bundles, workers_used, filled)``; ``filled`` maps each model
    spec to the ``(workload, batch)`` keys the worker caches hold, and is
    ``None`` when the jobs ran in-process.  Fan-out needs at least two jobs,
    a worker budget above one, every service model shippable, and a process
    pool that actually comes up — anything else runs the jobs sequentially
    in-process, which is always correct (and on a single-core host, just as
    fast).
    """
    policy = sim.batching_policy
    vectorize = sim.vectorize
    budget = workers if workers is not None else (os.cpu_count() or 1)
    use = min(budget, len(jobs))
    if use >= 2:
        payloads = []
        for job in jobs:
            specs = tuple(_model_spec(model) for model in job.models)
            if any(spec is None for spec in specs):
                payloads = None
                break
            payloads.append((
                policy, specs, job.router, job.global_chips, job.arr,
                job.ids, job.codes, workload_names, vectorize,
            ))
        if payloads is not None:
            from concurrent.futures import ProcessPoolExecutor

            try:
                import multiprocessing

                context = (
                    multiprocessing.get_context("fork")
                    if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
                with ProcessPoolExecutor(
                    max_workers=use, mp_context=context
                ) as pool:
                    returned = list(pool.map(_run_component_worker, payloads))
                filled: dict = {}
                for _bundle, keys in returned:
                    for spec, spec_keys in keys.items():
                        filled.setdefault(spec, set()).update(spec_keys)
                return [bundle for bundle, _keys in returned], use, filled
            except ServingError:
                raise
            except Exception:
                # Pool failure (pickling, spawn limits, broken pool): fall
                # through to the sequential path rather than fail the run.
                pass
    return [
        _simulate_component(
            policy, job.models, job.router, job.global_chips, job.arr,
            job.ids, job.codes, workload_names, vectorize,
        )
        for job in jobs
    ], 1, None


def _component_jobs(plan, chip_models, router, per_component, workload_names):
    """Build :class:`_Job` inputs from partitioned per-component columns."""
    jobs = []
    for index, global_chips in enumerate(plan.components):
        arr_parts, id_parts, code_parts = per_component[index]
        if not arr_parts:
            continue
        if plan.mode == "rr":
            local_router = RoundRobinRouter()
        else:
            local_index = {chip: k for k, chip in enumerate(global_chips)}
            local_owners = {
                workload: tuple(local_index[chip] for chip in pool)
                for workload, pool in router.owners.items()
                if plan.comp_of_workload[workload] == index
            }
            local_router = FixedOwnersRouter(local_owners)
        jobs.append(
            _Job(
                models=tuple(chip_models[chip] for chip in global_chips),
                router=local_router,
                global_chips=global_chips,
                arr=np.concatenate(arr_parts),
                ids=np.concatenate(id_parts),
                codes=np.concatenate(code_parts),
            )
        )
    return jobs




def _partition(plan, router, chunks, workload_names):
    """Check the sorted columnar chunks and split them by component.

    Returns ``(per_component, total, first_arrival)`` where
    ``per_component[index]`` holds the ``(arrivals, ids, codes)`` column
    parts of component ``index``.  Partitioning must see the whole stream
    before any component runs, so the stream is materialized here.
    """
    wl_code = {name: code for code, name in enumerate(workload_names)}
    num_components = len(plan.components)
    per_component = [([], [], []) for _ in range(num_components)]
    if plan.mode == "owners":
        # The trailing -1 is what an unknown workload's code (-1) reads.
        comp_of_code = np.array(
            [plan.comp_of_workload.get(name, -1) for name in workload_names]
            + [-1],
            dtype=np.int64,
        )
    prev_arrival = -float("inf")
    prev_id = -1
    total = 0
    first_arrival = 0.0
    for arrivals, names, chunk_ids in chunks:
        if not (len(arrivals) == len(names) == len(chunk_ids)):
            raise ServingError("columnar chunk has mismatched column lengths")
        n = len(arrivals)
        if not n:
            continue
        arr = np.asarray(arrivals, dtype=float)
        try:
            ids = np.asarray(chunk_ids, dtype=np.int64)
        except OverflowError:  # the columnar engine keeps int64 ids
            raise _id_range_error(
                chunk_ids, "a sharded run needs; run with one shard"
            ) from None
        bad = None
        if arr[0] < prev_arrival or (
            arr[0] == prev_arrival and ids[0] <= prev_id
        ):
            bad = 0
        elif n > 1:
            unsorted = np.flatnonzero(
                (arr[1:] < arr[:-1])
                | ((arr[1:] == arr[:-1]) & (ids[1:] <= ids[:-1]))
            )
            if unsorted.size:
                bad = int(unsorted[0]) + 1
        if bad is not None:
            raise ServingError(
                "request stream is not sorted by (arrival_s, request_id) "
                f"or repeats a request id near request {int(ids[bad])}"
            )
        prev_arrival = float(arr[-1])
        prev_id = int(ids[-1])
        try:
            codes = np.fromiter(
                map(wl_code.__getitem__, names), dtype=np.int64, count=n
            )
        except KeyError:
            codes = np.fromiter(
                (wl_code.get(name, -1) for name in names),
                dtype=np.int64,
                count=n,
            )
        if plan.mode == "rr":
            unknown = np.flatnonzero(codes < 0)
            if unknown.size:
                raise ServingError(
                    f"stream contains workload '{names[int(unknown[0])]}' "
                    "missing from the declared workload set "
                    f"{list(workload_names)}"
                )
            comp = (total + np.arange(n, dtype=np.int64)) % num_components
        else:
            comp = comp_of_code[codes]
            unroutable = np.flatnonzero(comp < 0)
            if unroutable.size:
                # The router raises its own (exact) unroutable-workload error.
                position = int(unroutable[0])
                router.route(
                    Request(
                        int(ids[position]),
                        names[position],
                        float(arr[position]),
                    ),
                    (),
                )
                raise ServingError(  # pragma: no cover
                    f"router failed on workload '{names[position]}'"
                )
        if not total:
            first_arrival = float(arr[0])
        total += n
        for index in range(num_components):
            mask = comp == index
            if mask.any():
                per_component[index][0].append(arr[mask])
                per_component[index][1].append(ids[mask])
                per_component[index][2].append(codes[mask])
    if not total:
        raise ServingError("cannot simulate an empty request stream")
    return per_component, total, first_arrival


def _run_sharded(
    sim,
    chunks,
    workload_names,
    shards,
    workers,
    telemetry_window_s,
    stream=False,
    provenance=None,
):
    """The sharded execution of ``ServingSimulator.run`` and ``run_stream``.

    Both call this whenever ``shards != 1``.  The shard arguments are
    checked first; then a run with a chaos timeline (its incident
    accounting is fleet-global) or on a fleet :func:`plan_components`
    cannot split runs on the single-shard core, and
    ``provenance["shard_fallback"]`` says why.  Otherwise the chunks are
    partitioned once, the components run (see :func:`_run_components`)
    and their accounting folds once.

    ``stream=False`` returns ``run``'s :class:`ServingResult`: records
    merged by ``request_id``, exactly equal to the single-shard run's.
    ``stream=True`` returns ``run_stream``'s
    :class:`StreamedServingResult`, with latency arrays in the canonical
    ``(dispatch_s, chip, batch)`` order: per-chip arrays are
    byte-identical to the single-shard run's, and float-equal dispatch
    instants interleave by chip id (order-insensitive metrics are
    unaffected).  Energy is summed per component and then across
    components, so it may differ from the single-shard total by an ulp.
    ``telemetry_window_s`` derives the windowed series from the merged
    batch log; window contents are order-insensitive multisets, so the
    series is byte-identical to the single-shard run's.
    """
    if shards < 1:
        raise ServingError(f"shards must be >= 1, got {shards}")
    if workers is not None and workers < 1:
        raise ServingError(f"shard workers must be >= 1, got {workers}")
    chip_models = sim._chip_models()
    router = sim._make_router(workload_names, chip_models)
    plan = (
        CHAOS_SHARD_FALLBACK
        if sim.chaos is not None
        else plan_components(router, sim.fleet.num_chips)
    )
    if isinstance(plan, str):
        if stream:
            result = sim.run_stream(
                chunks, workload_names, provenance=provenance,
                telemetry_window_s=telemetry_window_s,
            )
        else:
            result = sim._run_trace(chunks, workload_names, telemetry_window_s)
        result.provenance.update(
            {"shards": shards, "shards_effective": 1, "shard_fallback": plan}
        )
        return result

    per_component, total, first_arrival = _partition(
        plan, router, chunks, workload_names
    )
    jobs = _component_jobs(
        plan, chip_models, router, per_component, workload_names
    )
    bundles, workers_used, filled = _run_components(
        sim, jobs, workload_names, workers
    )

    served = sum(bundle.served for bundle in bundles)
    if served != total:
        raise ServingError(
            f"simulation lost requests: {served} served of {total}"
        )
    num_chips = sim.fleet.num_chips
    chip_busy = [0.0] * num_chips
    chip_requests = [0] * num_chips
    energy = 0.0
    num_batches = 0
    horizon = first_arrival
    for bundle in bundles:
        for chip, busy_s, chip_served in bundle.chip_rows:
            chip_busy[chip] = busy_s
            chip_requests[chip] = chip_served
        energy += bundle.energy
        num_batches += bundle.num_batches
        if bundle.horizon > horizon:
            horizon = bundle.horizon
    log = _BatchLog.concat([bundle.log for bundle in bundles])

    def derive_telemetry():
        if telemetry_window_s is None:
            return None
        from repro.serving.telemetry import _energy_lookup, _series_from_emits

        return _series_from_emits(
            log, workload_names, num_chips, _energy_lookup(chip_models),
            telemetry_window_s, horizon, first_arrival,
        )

    # Provenance's ``cached_reports`` counts the parent process's service
    # cache, which the telemetry's energy lookups fill: a streamed run's
    # count includes them, a full-trace run's does not.  Pooled components
    # filled their workers' caches, whose keys join the parent's.
    telemetry = derive_telemetry() if stream else None
    run_provenance = sim._provenance(total)
    if filled is not None:
        caches = {id(model): model for model in chip_models}.values()
        run_provenance["cached_reports"] = sum(
            len(cache.report_keys | filled.get(_model_spec(cache), set()))
            for cache in caches
        )
    if provenance:
        run_provenance.update(provenance)
    run_provenance.update({
        "shards": shards,
        "shards_effective": len(plan.components),
        "shard_components": [list(chips) for chips in plan.components],
        "shard_workers": workers_used,
    })
    if not stream:
        telemetry = derive_telemetry()
    accounting = dict(
        num_chips=num_chips,
        chip_busy_s=tuple(chip_busy),
        chip_requests=tuple(chip_requests),
        energy_joules=energy,
        num_batches=num_batches,
        horizon_s=horizon,
        first_arrival_s=first_arrival,
        chip_backends=sim.fleet.chip_backends,
        provenance=run_provenance,
        telemetry=telemetry,
    )

    if not stream:
        return ServingResult(records=log.records(workload_names), **accounting)

    # lexsort is stable: each chip's batches at one instant keep their
    # dispatch order.
    log = log.reordered(np.lexsort((log.chip, log.dispatch)))
    size = log.size
    codes = np.repeat(log.code, size)
    chip = np.repeat(log.chip, size)
    latency = np.repeat(log.finish, size) - log.arrival
    return StreamedServingResult(
        num_requests=total,
        latency_s=latency,
        queue_delay_s=np.repeat(log.dispatch, size) - log.arrival,
        workload_latency_s={
            name: latency[codes == code]
            for code, name in enumerate(workload_names)
        },
        chip_latency_s=tuple(
            latency[chip == index] for index in range(num_chips)
        ),
        **accounting,
    )
