"""The benchmark's workloads: set-up, one timed iteration, output checks.

Every workload splits its work the same way:

* :meth:`Workload.setup` pays what a cold command pays once — traffic
  generation, trace recording and the warm-up iteration that fills every
  ``ExecutionCache`` entry.  Each call starts from a fresh cache, so it can
  be repeated for a steadier set-up time.
* :meth:`Workload.iteration` is the timed work.  It returns one raw output
  per *operation* (the report, or one serving run) with the wall clock of
  the operation's timed parts, and never raises: a failing operation
  returns its error instead.
* :meth:`Workload.check` and :meth:`Workload.final_checks` run outside the
  timed region and turn outputs into :class:`Outcome` records, each with a
  digest of what the operation produced.

Host-side calls are back to back from one caller; ``workers=1`` and
``shard_workers=1`` keep every run in this process, so the wall clock
measures one core's work whatever the machine's core count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from pathlib import Path
from typing import NamedTuple

from repro.backends import ExecutionCache
from repro.evaluation import engine, report
from repro.serving import control, metrics, scenarios, sessions, trace
from repro.serving.batching import build_policy
from repro.serving.fleet import Fleet
from repro.serving.simulator import ServingSimulator

__all__ = [
    "GOLDEN_REPORT",
    "Outcome",
    "ReportSmoke",
    "ServeFeedback",
    "ServeOpen",
    "WORKLOADS",
    "report_outcomes",
    "serving_outcome",
]

#: the checked-in smoke report, relative to the repository root
GOLDEN_REPORT = Path("tests/evaluation/golden/report_smoke.md")


class Outcome(NamedTuple):
    """Checked result of one operation."""

    op: str
    ok: bool
    #: short digest of the operation's output ("" when it produced none)
    digest: str
    detail: str = ""


def digest(value) -> str:
    """Short stable digest of a JSON-serializable value or a string."""
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, default=repr
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _attempt(op: str, fn):
    """``(op, value, None, parts)``, or ``(op, None, error, parts)`` when
    ``fn`` raises; ``parts`` is ``{op: wall clock of the call}``."""
    started = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception as exc:  # an operation failure is counted, not fatal
        value, error = None, f"{type(exc).__name__}: {exc}"
    return op, value, error, {op: time.perf_counter() - started}


class Workload:
    """Interface of one benchmark workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, scale: float, workdir: Path, root: Path) -> None:
        self.seed = seed
        #: multiplies every serving duration (tests run at a tiny scale)
        self.scale = scale
        self.workdir = workdir
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self) -> list[tuple]:
        raise NotImplementedError

    def check(self, outputs: list[tuple]) -> list[Outcome]:
        raise NotImplementedError

    def final_checks(self, outputs: list[tuple]) -> list[Outcome]:
        """Once-per-run checks on the last iteration's outputs."""
        return []


# -- report_smoke ---------------------------------------------------------------


def _sections(text: str) -> tuple[str, dict[str, str]]:
    """Split a report into its header and ``{title: section}``.

    The document's final newline is dropped, so the last section compares
    like any other.
    """
    header, *sections = text.removesuffix("\n").split("\n\n## ")
    return header, {section.split("\n", 1)[0]: section for section in sections}


def report_outcomes(text: str, golden: str, titles: list[str]) -> list[Outcome]:
    """One outcome per experiment section, compared with the golden report.

    A section is correct when it is byte-identical to the golden section
    of the same title.  Text outside the sections (the header, or the
    order of sections) is checked too, and a difference there fails the
    first operation.
    """
    header, produced = _sections(text)
    golden_header, expected = _sections(golden)
    outcomes = []
    for title in titles:
        section = produced.get(title)
        ok = section is not None and section == expected.get(title)
        outcomes.append(Outcome(
            title, ok, digest(section) if section is not None else "",
            "" if ok else "differs from the golden report",
        ))
    layout_ok = (
        header == golden_header
        and list(produced) == titles
        and text.endswith("\n") == golden.endswith("\n")
    )
    if outcomes and not layout_ok:
        outcomes[0] = outcomes[0]._replace(
            ok=False, detail="report text outside the sections differs"
        )
    return outcomes


class ReportSmoke(Workload):
    """``repro report --smoke --no-cache``: all registered experiments.

    The only workload that runs the ``core`` factorizer, the evaluation
    drivers, ``dse`` and cold workload builds.  Its inputs are fixed by the
    golden report, so the seed does not change them.
    """

    name = "report_smoke"

    def setup(self) -> None:
        self.golden = (self.root / GOLDEN_REPORT).read_text()

    def iteration(self) -> list[tuple]:
        """The report, with each experiment's run timed as its own part.

        The part ``report`` is what remains: validation, rendering and
        assembly of the document.
        """
        parts = {}
        run = engine.run

        def timed_run(experiment_id, *args, **kwargs):
            started = time.perf_counter()
            try:
                return run(experiment_id, *args, **kwargs)
            finally:
                parts[experiment_id] = time.perf_counter() - started

        engine.run = timed_run
        try:
            op, text, error, total = _attempt("report", lambda: report.build_report(
                smoke=True, use_cache=False, workers=1
            ))
        finally:
            engine.run = run
        parts["report"] = total["report"] - sum(parts.values())
        return [(op, text, error, parts)]

    def check(self, outputs: list[tuple]) -> list[Outcome]:
        titles = [spec.title for spec in report.all_specs()]
        (_, text, error, _), = outputs
        if error is not None:
            return [Outcome(title, False, "", error) for title in titles]
        return report_outcomes(text, self.golden, titles)


# -- serving --------------------------------------------------------------------


def serving_outcome(op: str, value, error: str | None, offered: int) -> Outcome:
    """Conservation check of one serving run plus its summary-row digest.

    ``offered`` is counted independently of the run (from the generated
    traffic or the closed-loop population), so a run that drops a request
    without accounting for it fails: ``offered == completed + shed + lost``.
    """
    if error is not None:
        return Outcome(op, False, "", error)
    result, row = value
    accounted = result.num_requests + result.requests_shed + result.requests_lost
    ok = accounted == offered
    detail = "" if ok else (
        f"conservation broken: {result.num_requests} completed + "
        f"{result.requests_shed} shed + {result.requests_lost} lost "
        f"!= {offered} offered"
    )
    return Outcome(op, ok, digest(row), detail)


def _summarized(run, slo_s: float):
    """Call ``run`` and return ``(result, summary row)``."""
    result = run()
    return result, metrics.summarize_result(result, slo_s)


def _simulator(cache, scenario, chaos=None, num_chips=None, router=None):
    """A simulator on ``scenario``'s fleet and policy over a shared cache."""
    return ServingSimulator(
        service_model=cache,
        fleet=Fleet(
            num_chips=num_chips or scenario.num_chips,
            router=router or scenario.router,
        ),
        batching_policy=build_policy(scenario.policy),
        chaos=chaos,
    )


#: (scenario, router, load_scale, duration_scale) of the pinned-controller checks
_PINNED_CASES = (
    ("flash_crowd", "jsq", 4.0, 0.5),
    ("steady", "round_robin", 1.0, 1.0),
)


def pinned_controller_outcomes(cache, seed: int, scale: float) -> list[Outcome]:
    """A pinned controller must reproduce the plain core's records.

    Pinned: ``min_chips == max_chips ==`` the fleet size, admission and
    adaptive batching off, so the controller has nothing to decide.  This is
    the differential gate between ``run_controlled`` and the event core.
    """
    outcomes = []
    for name, router, load_scale, duration_scale in _PINNED_CASES:
        op = f"pinned_controller_matches_core_{name}_{router}"
        scenario = scenarios.get_scenario(name)
        requests = scenario.traffic(seed, load_scale, duration_scale * scale)
        chips = scenario.num_chips
        config = control.ControllerConfig(
            min_chips=chips, max_chips=chips, admission=False,
            adapt_batching=False, slo_s=scenario.slo_s,
        )

        def both():
            plain = _simulator(cache, scenario, router=router).run(requests)
            pinned = control.run_controlled(
                _simulator(cache, scenario, router=router), config, requests
            )
            return plain.records, pinned.records

        _, value, error, _ = _attempt(op, both)
        if error is not None:
            outcomes.append(Outcome(op, False, "", error))
            continue
        plain, pinned = value
        ok = plain == pinned
        outcomes.append(Outcome(
            op, ok, digest([list(record) for record in plain]),
            "" if ok else "pinned controller records differ from the core",
        ))
    return outcomes


class _OpenRun(NamedTuple):
    """One ``repro serve SCENARIO`` call of :class:`ServeOpen`."""

    op: str
    scenario: str
    load_scale: float
    duration_scale: float
    num_chips: int | None = None
    router: str | None = None
    shards: int = 1
    telemetry_window_s: float | None = None


# Bursty (MMPP) presets change size with the seed — flash_crowd's request
# count spans 6x across seeds — so the timed runs use Poisson-driven
# shapes, and ramp_surge (whose burst phase is short) runs long and light.
#: the open-loop scenario runs of one ``serve_open`` iteration
_OPEN_RUNS = (
    # water-fill coupled engine
    _OpenRun("steady_x16_jsq8", "steady", 16.0, 0.3, 8, "jsq"),
    # sharded columnar engine
    _OpenRun("steady_x16_rr8_shards4", "steady", 16.0, 0.3, 8, "round_robin",
             shards=4),
    _OpenRun("mixed_workload_x8_affinity8_telemetry", "mixed_workload", 8.0,
             0.3, 8, telemetry_window_s=0.05),
    _OpenRun("ramp_surge_x1_jsq2", "ramp_surge", 1.0, 2.4),
)
#: the scenario recorded in set-up and replayed by ``repro serve --trace``
_REPLAY = _OpenRun("replay_diurnal_x16_jsq8", "diurnal", 16.0, 0.3, 8, "jsq")
_SHARDED = _OPEN_RUNS[1]


class ServeOpen(Workload):
    """Open-loop ``repro serve SCENARIO`` and ``repro serve --trace`` runs.

    Iterations spend their time in traffic generation, trace reading, the
    vectorized event core, telemetry and metrics, over one shared
    ``ExecutionCache`` that set-up filled.
    """

    name = "serve_open"

    def setup(self) -> None:
        self.cache = ExecutionCache()
        self.trace_path = self.workdir / "replay.jsonl"
        self.trace_info = trace.record_scenario(
            self.trace_path, _REPLAY.scenario, seed=self.seed,
            load_scale=_REPLAY.load_scale,
            duration_scale=_REPLAY.duration_scale * self.scale,
        )
        self.iteration()  # warm-up: fills every (workload, batch) report

    def _traffic(self, run: _OpenRun) -> list:
        """``run``'s request stream, generated apart from the run itself."""
        return scenarios.get_scenario(run.scenario).traffic(
            self.seed, run.load_scale, run.duration_scale * self.scale
        )

    @functools.cached_property
    def offered(self) -> dict[str, int]:
        """Requests each run is offered, counted once outside timing.

        Only counts are kept: streams held across iterations would inflate
        every garbage collection the timed runs trigger.
        """
        offered = {run.op: len(self._traffic(run)) for run in _OPEN_RUNS}
        offered[_REPLAY.op] = self.trace_info.num_requests
        return offered

    def _run_scenario(self, run: _OpenRun):
        scenario, result = scenarios.run_scenario(
            run.scenario,
            seed=self.seed,
            load_scale=run.load_scale,
            duration_scale=run.duration_scale * self.scale,
            num_chips=run.num_chips,
            router=run.router,
            service_model=self.cache,
            shards=run.shards,
            shard_workers=1,
            telemetry_window_s=run.telemetry_window_s,
        )
        return result, metrics.summarize_result(result, scenario.slo_s)

    def _replay(self):
        return _summarized(
            lambda: trace.replay_trace(
                self.trace_path, num_chips=_REPLAY.num_chips,
                router=_REPLAY.router, service_model=self.cache,
                shard_workers=1,
            ),
            scenarios.get_scenario(_REPLAY.scenario).slo_s,
        )

    def iteration(self) -> list[tuple]:
        outputs = [
            _attempt(run.op, lambda: self._run_scenario(run))
            for run in _OPEN_RUNS
        ]
        outputs.append(_attempt(_REPLAY.op, self._replay))
        return outputs

    def check(self, outputs: list[tuple]) -> list[Outcome]:
        return [
            serving_outcome(op, value, error, self.offered[op])
            for op, value, error, _ in outputs
        ]

    def final_checks(self, outputs: list[tuple]) -> list[Outcome]:
        """Differential checks of the event core, once per run.

        The sharded run's records must equal its ``shards=1`` records, and
        a pinned controller must reproduce the core's records.
        """
        op = f"{_SHARDED.op}_matches_shards1"
        sharded = {name: value for name, value, *_ in outputs}[_SHARDED.op]
        scenario = scenarios.get_scenario(_SHARDED.scenario)
        _, single, error, _ = _attempt(op, lambda: _simulator(
            self.cache, scenario, num_chips=_SHARDED.num_chips,
            router=_SHARDED.router,
        ).run(self._traffic(_SHARDED)))
        if error is not None or sharded is None:
            outcome = Outcome(op, False, "", error or "sharded run failed")
        else:
            ok = single.records == sharded[0].records
            outcome = Outcome(
                op, ok, digest([list(record) for record in single.records]),
                "" if ok else "sharded records differ from shards=1",
            )
        return [outcome, *pinned_controller_outcomes(self.cache, self.seed, self.scale)]


class _FeedbackRun(NamedTuple):
    """One feedback-loop run of :class:`ServeFeedback`."""

    op: str
    scenario: str
    load_scale: float
    duration_scale: float
    #: controller policy of a ``run_controlled`` run (None: sessions/chaos)
    policy: str | None = None


class ServeFeedback(Workload):
    """The per-request feedback loops: controller, sessions and chaos.

    Request streams are generated once in set-up, as when one recorded
    trace is replayed through several configurations, so iterations time
    only the scalar loops (routers, policies, cache hits, accounting).
    The target-utilization autoscaler follows the diurnal curve rather than
    flash_crowd, whose size swings 6x with the seed.

    Not listed in ``BENCHMARK.json``.  Each of its three set-ups takes
    ~12 s of cold cache fills on a shared 2-vCPU machine, so a third
    workload would push the benchmark's 70 runs past their hour.  Its
    fastest iterations also spread 0.10 across six seeds (quartile range
    over median), against 0.04-0.06 for serve_open.  Its layers still
    show in ``report_smoke`` (the serve_control and serve_chaos tables).
    """

    name = "serve_feedback"
    controlled = (
        _FeedbackRun("control_target_util_diurnal", "diurnal", 8.0, 0.5,
                     "target_util"),
        _FeedbackRun("control_queue_pid_ramp_surge", "ramp_surge", 1.0, 2.0,
                     "queue_pid"),
    )
    sessions_run = _FeedbackRun("sessions_session_surge", "session_surge", 8.0, 1.0)
    chaotic = (
        _FeedbackRun("chaos_chip_outage", "chip_outage", 8.0, 0.5),
        _FeedbackRun("chaos_straggler_storm", "straggler_storm", 4.0, 1.0),
    )

    def setup(self) -> None:
        self.cache = ExecutionCache()
        self.requests = {
            run.op: scenarios.get_scenario(run.scenario).traffic(
                self.seed, run.load_scale, run.duration_scale * self.scale
            )
            for run in self.controlled + self.chaotic
        }
        run = self.sessions_run
        self.session_config = scenarios.get_scenario(run.scenario).sessions.scaled(
            run.load_scale, run.duration_scale * self.scale
        )
        self.iteration()  # warm-up: fills every (workload, batch) report

    def iteration(self) -> list[tuple]:
        outputs = []
        for run in self.controlled:
            scenario = scenarios.get_scenario(run.scenario)
            config = control.ControllerConfig(policy=run.policy, slo_s=scenario.slo_s)
            outputs.append(_attempt(run.op, lambda: _summarized(
                lambda: control.run_controlled(
                    _simulator(self.cache, scenario), config, self.requests[run.op]
                ),
                scenario.slo_s,
            )))
        run = self.sessions_run
        scenario = scenarios.get_scenario(run.scenario)
        outputs.append(_attempt(run.op, lambda: _summarized(
            lambda: sessions.run_sessions(
                _simulator(self.cache, scenario), self.session_config, seed=self.seed
            ),
            scenario.slo_s,
        )))
        for run in self.chaotic:
            scenario = scenarios.get_scenario(run.scenario)
            chaos = scenario.chaos.scaled(run.duration_scale * self.scale)
            outputs.append(_attempt(run.op, lambda: _summarized(
                lambda: _simulator(self.cache, scenario, chaos).run(
                    self.requests[run.op]
                ),
                scenario.slo_s,
            )))
        return outputs

    def check(self, outputs: list[tuple]) -> list[Outcome]:
        offered = {op: len(requests) for op, requests in self.requests.items()}
        config = self.session_config
        # Every user runs every turn of every session exactly once.
        offered[self.sessions_run.op] = (
            config.users * config.sessions_per_user * config.turns
        )
        return [
            serving_outcome(op, value, error, offered[op])
            for op, value, error, _ in outputs
        ]


#: workload name -> class
WORKLOADS = {
    workload.name: workload for workload in (ReportSmoke, ServeOpen, ServeFeedback)
}
