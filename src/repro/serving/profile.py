"""Per-phase wall-clock profiling of a serving scenario run.

``repro serve SCENARIO --profile`` answers "where does the event core's
time actually go?" with measured numbers instead of guesses: traffic
generation (arrival decode), batching-policy ``plan`` calls, router
``route`` calls, service/energy model lookups, the residual event core,
and metrics finalize are timed separately over one full scenario run.

Instrumentation is interface-level: the policy, router and service model
are wrapped in timing proxies, which routes the run through the same
generic ``plan``/``route`` interfaces any third-party implementation
uses — the built-in inlined fast paths (trusted plan shortcuts, inline
routing, the chunked clock advance) only engage for the exact builtin
classes and are bypassed by the wrappers.  The report therefore shows the
*interface* cost of each phase; the ``uninstrumented_run_s`` figure — the
same run with the wrappers off and every fast path on — shows what
production pays, and the gap between the two is the fast paths' margin.

The uninstrumented run also contributes its dispatch-path attribution
(``event_paths``): how many requests rode the water-filling jsq spans and
the bulk idle-disjoint runs versus the one-at-a-time scalar loop, plus
the ``coupled_engine`` marker on jsq fleets — so a profile of a coupled
scenario shows whether production traffic actually takes the vectorized
path.
"""

from __future__ import annotations

import time

from repro.backends.cache import ExecutionCache
from repro.errors import ServingError
from repro.serving._checks import check_scales, check_seed
from repro.serving.batching import BatchingPolicy, build_policy
from repro.serving.fleet import Fleet, Router
from repro.serving.simulator import ServingSimulator

__all__ = ["profile_scenario"]


class _PhaseTimings:
    """Accumulated ``(seconds, calls)`` per instrumented phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1


class _TimedPolicy(BatchingPolicy):
    """Times every ``plan`` consultation of the inner policy."""

    def __init__(self, inner: BatchingPolicy, timings: _PhaseTimings) -> None:
        self.inner = inner
        self.timings = timings
        self.name = inner.name
        self.single_group_cap = inner.single_group_cap
        self.eager_singleton = inner.eager_singleton

    def plan(self, groups, now_s):
        started = time.perf_counter()
        decision = self.inner.plan(groups, now_s)
        self.timings.add("policy plan", time.perf_counter() - started)
        return decision


class _TimedRouter(Router):
    """Times every routing decision of the inner router."""

    def __init__(self, inner: Router, timings: _PhaseTimings) -> None:
        self.inner = inner
        self.timings = timings
        self.name = inner.name

    def route(self, request, chips):
        started = time.perf_counter()
        chosen = self.inner.route(request, chips)
        self.timings.add("route", time.perf_counter() - started)
        return chosen


class _TimedModel:
    """Times every service/energy lookup of the inner execution cache."""

    def __init__(self, inner, timings: _PhaseTimings) -> None:
        self.inner = inner
        self.timings = timings

    @property
    def backend_name(self):
        return self.inner.backend_name

    @property
    def scheduler(self):
        return self.inner.scheduler

    @property
    def cached_reports(self):
        return self.inner.cached_reports

    def report(self, workload, batch_size):
        started = time.perf_counter()
        report = self.inner.report(workload, batch_size)
        self.timings.add("service lookup", time.perf_counter() - started)
        return report

    def service_seconds(self, workload, batch_size):
        started = time.perf_counter()
        value = self.inner.service_seconds(workload, batch_size)
        self.timings.add("service lookup", time.perf_counter() - started)
        return value

    def energy_joules(self, workload, batch_size):
        started = time.perf_counter()
        value = self.inner.energy_joules(workload, batch_size)
        self.timings.add("service lookup", time.perf_counter() - started)
        return value


class _ProfilingSimulator(ServingSimulator):
    """Simulator whose router is wrapped in the timing proxy.

    Sharded profiling runs skip the router wrapper: the proxy would hide
    the router's concrete class from
    :func:`~repro.serving.sharding.plan_components` and force a
    single-shard fallback.  Per-component routing then happens inside the
    shard engines and is accounted to ``event core (other)``.
    """

    def __init__(
        self, *args, timings: _PhaseTimings, wrap_router: bool = True, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self._timings = timings
        self._wrap_router = wrap_router

    def _make_router(self, workloads, chip_models):
        router = super()._make_router(workloads, chip_models)
        if not self._wrap_router:
            return router
        return _TimedRouter(router, self._timings)


def profile_scenario(
    name: str,
    seed: int = 0,
    load_scale: float = 1.0,
    duration_scale: float = 1.0,
    num_chips: int | None = None,
    router: str | None = None,
    policy: str | None = None,
    backend: str | None = None,
    shards: int = 1,
    shard_workers: int | None = None,
) -> dict:
    """Profile one scenario run; returns the per-phase breakdown payload.

    The fleet must be homogeneous (one backend) — per-chip model wrapping
    on a mixed fleet would blur whose lookups cost what.

    ``shards > 1`` profiles the component-sharded engine instead: phase
    timings aggregate across every shard.  The timing proxies are not
    picklable, so instrumented shards always run sequentially in-process
    (the proxied model pins its component to the parent process) — which
    is exactly what makes the aggregation exact.  Routing happens inside
    the per-component engines there, so the ``route`` phase reports zero
    and its cost lands in ``event core (other)``.  The uninstrumented
    comparison run uses the same ``shards`` / ``shard_workers`` settings
    with every fast path on.
    """
    from repro.serving.metrics import per_workload_summary, summarize_result
    from repro.serving.scenarios import get_scenario

    check_seed(seed)
    check_scales(load_scale, duration_scale)
    scenario = get_scenario(name)
    chips = num_chips if num_chips is not None else scenario.num_chips
    fleet = Fleet(
        num_chips=chips,
        router=router if router is not None else scenario.router,
        backends=(backend,) if backend else (),
    )
    if fleet.is_heterogeneous:
        raise ServingError(
            "--profile needs a homogeneous fleet (one backend); profile the "
            "backends one at a time"
        )
    policy_name = policy if policy is not None else scenario.policy
    timings = _PhaseTimings()

    started = time.perf_counter()
    requests = scenario.traffic(seed, load_scale, duration_scale)
    traffic_s = time.perf_counter() - started
    if not requests:
        raise ServingError(
            f"scenario '{name}' generated no requests "
            f"(seed={seed}, load_scale={load_scale}, "
            f"duration_scale={duration_scale})"
        )

    cache = ExecutionCache(backend=fleet.chip_backends[0])
    timed_sim = _ProfilingSimulator(
        service_model=_TimedModel(cache, timings),
        fleet=fleet,
        batching_policy=_TimedPolicy(build_policy(policy_name), timings),
        timings=timings,
        wrap_router=shards == 1,
    )
    # Warm the execution cache first so "service lookup" times the per-run
    # memoized-lookup cost the steady state pays, not one-time workload
    # graph construction (reported separately).
    started = time.perf_counter()
    timed_sim.run(requests, shards=shards, shard_workers=shard_workers)
    warmup_s = time.perf_counter() - started
    timings.seconds.clear()
    timings.calls.clear()

    started = time.perf_counter()
    result = timed_sim.run(requests, shards=shards, shard_workers=shard_workers)
    instrumented_s = time.perf_counter() - started

    started = time.perf_counter()
    summarize_result(result, scenario.slo_s)
    per_workload_summary(result, scenario.slo_s)
    timings.add("metrics finalize", time.perf_counter() - started)

    # The same run, wrappers off: every builtin fast path engages.
    plain_sim = ServingSimulator(
        service_model=cache, fleet=fleet, batching_policy=build_policy(policy_name)
    )
    plain_sim.run(requests, shards=shards, shard_workers=shard_workers)
    started = time.perf_counter()
    plain_result = plain_sim.run(
        requests, shards=shards, shard_workers=shard_workers
    )
    uninstrumented_s = time.perf_counter() - started

    phase_order = (
        "traffic generation",
        "policy plan",
        "route",
        "service lookup",
        "event core (other)",
        "metrics finalize",
    )
    inner_phases = ("policy plan", "route", "service lookup")
    timings.seconds["event core (other)"] = max(
        instrumented_s - sum(timings.seconds.get(p, 0.0) for p in inner_phases),
        0.0,
    )
    timings.calls["event core (other)"] = 1
    # Traffic generation was timed before the warm-up run, whose ledger
    # reset would otherwise have wiped it.
    timings.seconds["traffic generation"] = traffic_s
    timings.calls["traffic generation"] = 1
    total = sum(timings.seconds.get(p, 0.0) for p in phase_order)
    phases = [
        {
            "phase": phase,
            "seconds": round(timings.seconds.get(phase, 0.0), 6),
            "calls": timings.calls.get(phase, 0),
            "share_pct": round(
                100.0 * timings.seconds.get(phase, 0.0) / total, 1
            )
            if total > 0
            else 0.0,
        }
        for phase in phase_order
    ]
    payload = {
        "scenario": name,
        "seed": seed,
        "load_scale": load_scale,
        "duration_scale": duration_scale,
        "num_requests": len(requests),
        "num_chips": chips,
        "router": fleet.router,
        "policy": policy_name,
        "phases": phases,
        "instrumented_run_s": round(instrumented_s, 6),
        "uninstrumented_run_s": round(uninstrumented_s, 6),
        "fast_path_speedup_x": round(instrumented_s / uninstrumented_s, 2)
        if uninstrumented_s > 0
        else 0.0,
        "warmup_run_s": round(warmup_s, 6),
    }
    # Dispatch-path attribution comes from the *uninstrumented* run: the
    # timing proxies hide the builtin policy/router classes, so the
    # instrumented run is all-scalar by construction and would report
    # nothing about what production takes.
    event_paths = plain_result.provenance.get("event_paths")
    if event_paths is not None:
        payload["event_paths"] = dict(event_paths)
    if "coupled_engine" in plain_result.provenance:
        payload["coupled_engine"] = plain_result.provenance["coupled_engine"]
    if shards > 1:
        payload["shards"] = shards
        payload["shards_effective"] = result.provenance.get(
            "shards_effective", 1
        )
        if "shard_fallback" in result.provenance:
            payload["shard_fallback"] = result.provenance["shard_fallback"]
    return payload
