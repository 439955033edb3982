"""Parallel suite runner for independent ``(scenario, config)`` cases.

Coupled (jsq) fleets cannot shard — every routing decision depends on all
queue depths, so ``--shards`` records a fallback and runs single-shard.
What *can* parallelise is the suite level: independent scenario runs share
nothing, so :func:`run_suite` fans them across a persistent process pool
(``repro serve SCENARIO[,SCENARIO...] --jobs N``), giving coupled fleets
the process-level parallelism that ``--shards`` gives shardable ones.

Workers are forked once and reused for the whole suite; each keeps a
process-global memo of :class:`~repro.serving.fleet.FleetServiceModel`
instances keyed by the fleet's per-chip backends, so the memoized
``(workload, batch)`` service tables warm once per fleet shape and stay
warm across every case that worker runs.  Results come back in input
order as plain picklable summaries.  ``jobs=1`` (and any pool start-up
failure, e.g. a platform without ``fork``) degrades to running the cases
sequentially in-process with the same memo — byte-identical output,
no pool.

Output is byte-identical across ``jobs`` values with one documented
exception: ``provenance["cached_reports"]`` counts the warmth of the
worker's service-table memo at result time, which depends on which cases
that worker (or the sequential path) ran before — it describes the memo,
not the simulation.  Records, summaries and telemetry never vary.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Sequence

from repro.errors import ServingError

__all__ = ["SuiteCase", "SuiteResult", "run_suite", "map_cases"]


class SuiteCase(NamedTuple):
    """One independent scenario run: a preset name plus config overrides.

    ``None`` overrides defer to the preset (same contract as
    :func:`repro.serving.scenarios.run_scenario`); ``backends`` names
    per-chip backends cycled across the fleet.  ``label`` names the case
    in results (defaults to the scenario name).
    """

    scenario: str
    seed: int = 0
    load_scale: float = 1.0
    duration_scale: float = 1.0
    num_chips: int | None = None
    router: str | None = None
    policy: str | None = None
    backends: tuple[str, ...] = ()
    label: str | None = None

    @property
    def name(self) -> str:
        """The case's display name: ``label`` when set, else the scenario."""
        return self.label or self.scenario


class SuiteResult(NamedTuple):
    """Summarised outcome of one case (picklable, no simulator state)."""

    case: SuiteCase
    scenario: str
    description: str
    slo_s: float
    num_requests: int
    provenance: dict
    summary: dict
    per_workload: list
    per_backend: list


#: worker-global service-model memo: chip_backends tuple -> FleetServiceModel.
#: Populated lazily inside each pool worker (and by the sequential path),
#: so repeated cases over the same fleet shape reuse warmed service tables.
_MODEL_MEMO: dict = {}


def _service_model_for(case: SuiteCase):
    """The memoized service model matching the case's resolved fleet."""
    from repro.serving.fleet import Fleet, FleetServiceModel
    from repro.serving.scenarios import get_scenario

    scenario = get_scenario(case.scenario)
    if case.num_chips is not None:
        chips = case.num_chips
    elif case.backends:
        chips = len(case.backends)
    else:
        chips = scenario.num_chips
    fleet = Fleet(
        num_chips=chips,
        router=case.router if case.router is not None else scenario.router,
        backends=tuple(case.backends),
    )
    key = fleet.chip_backends
    model = _MODEL_MEMO.get(key)
    if model is None:
        model = _MODEL_MEMO[key] = FleetServiceModel(fleet=fleet)
    return model


def _run_case(case: SuiteCase) -> SuiteResult:
    """Execute one case end to end (runs inside a pool worker)."""
    from repro.serving import metrics
    from repro.serving.scenarios import run_scenario

    scenario, result = run_scenario(
        case.scenario,
        seed=case.seed,
        load_scale=case.load_scale,
        duration_scale=case.duration_scale,
        num_chips=case.num_chips,
        router=case.router,
        policy=case.policy,
        service_model=_service_model_for(case),
        backends=case.backends or None,
    )
    return SuiteResult(
        case=case,
        scenario=scenario.name,
        description=scenario.description,
        slo_s=scenario.slo_s,
        num_requests=result.num_requests,
        provenance=dict(result.provenance),
        summary=metrics.summarize_result(result, scenario.slo_s),
        per_workload=metrics.per_workload_summary(result, scenario.slo_s),
        per_backend=metrics.per_backend_summary(result, scenario.slo_s),
    )


def map_cases(fn, items: Sequence, jobs: int = 1) -> list:
    """Map ``fn`` over ``items`` on a persistent pool, results in order.

    The shared fan-out primitive under :func:`run_suite` and the
    benchmark suites' ``jobs`` parameter.  ``fn`` and every item must be
    picklable (module-level callables, NamedTuple cases).  ``jobs=1`` —
    or a pool that cannot start — runs sequentially in-process.
    """
    items = list(items)
    jobs = max(1, min(int(jobs), len(items) or 1))
    if jobs == 1:
        return [fn(item) for item in items]
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
        pool = context.Pool(processes=jobs)
    except (ValueError, OSError):
        return [fn(item) for item in items]
    with pool:
        return pool.map(fn, items)


def run_suite(
    cases: Sequence[SuiteCase], jobs: int | None = 1
) -> list[SuiteResult]:
    """Run independent scenario cases, ``jobs`` at a time.

    Returns one :class:`SuiteResult` per case, in input order regardless
    of completion order.  ``jobs=None`` uses the machine's CPU count.
    """
    cases = list(cases)
    if not cases:
        return []
    for case in cases:
        if not isinstance(case, SuiteCase):
            raise ServingError(
                f"run_suite takes SuiteCase entries, got {type(case).__name__}"
            )
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ServingError(f"jobs must be at least 1, got {jobs}")
    return map_cases(_run_case, cases, jobs=jobs)
