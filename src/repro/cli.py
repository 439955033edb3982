"""``repro`` — command-line front-end to the experiment registry/engine.

Installed as a console script (see ``setup.py``) and runnable as
``python -m repro``.  Subcommands:

``repro list [--tag TAG] [--format md|json]``
    Enumerate the registered experiments (id, anchor, tags, title).
``repro run ID [ID ...] [--param k=v] [--workers N] [--no-cache]
[--format md|csv|json] [--output FILE] [--smoke]``
    Execute one or more experiments through the caching engine and print
    (or write) the result tables.
``repro report [--output EXPERIMENTS.md] [--workers N] [--no-cache]
[--smoke]``
    Regenerate the paper-vs-measured document from the registry.
``repro serve SCENARIO[,SCENARIO...] [--seed N] [--chips N] [--router R]
[--policy P] [--backend B[,B...]] [--load-scale X] [--duration-scale X]
[--jobs N]`` /
``repro serve SCENARIO --record FILE`` / ``repro serve --trace FILE`` /
``repro serve --list`` / ``repro serve --smoke``
    Run a serving scenario preset (or every serving experiment at smoke
    scale) through the request-level simulator; ``--backend`` builds a
    (possibly heterogeneous) fleet from registry backend names.
    ``--record`` writes the scenario's traffic to a JSONL request trace
    instead of serving it; ``--trace`` streams a recorded trace through
    the bounded-memory event core (fleet flags apply, ``--slo-ms`` sets
    the report's SLO).  ``--telemetry FILE [--telemetry-format jsonl|prom]
    [--window-ms W]`` exports the run's windowed time series and
    ``--dashboard`` renders it as terminal sparklines (both also apply to
    ``--trace`` replays).  ``--chaos FILE`` injects an incident timeline
    (chip failures, stragglers, power caps), ``--sessions [--users N]``
    serves closed-loop session traffic, and ``SCENARIO --smoke`` runs one
    scenario at smoke (0.2x duration) scale with resilience accounting.
    ``--controller target_util|queue_pid [--control-interval-ms W]`` runs
    the scenario under the closed-loop fleet controller (autoscaling,
    SLO-aware admission, adaptive batching).  Each mode rejects every
    flag it does not read.
``repro backends [NAME] [--format md|json]``
    List every registered backend, or describe one by name.
``repro cache [info|stats|clear] [--stats]``
    Inspect (optionally with a per-experiment breakdown) or empty the
    on-disk result cache.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from repro._version import __version__
from repro.errors import ReproError
from repro.evaluation import engine, report
from repro.evaluation.registry import all_specs, get_spec, specs_by_tag
from repro.evaluation.reporting import format_markdown_table

__all__ = ["main", "build_parser"]


def _coerce_param(raw: str, type_label: str):
    """Coerce a ``--param`` value string according to its schema label."""
    if type_label == "int":
        return int(raw)
    if type_label == "float":
        return float(raw)
    if type_label == "str":
        return raw
    if type_label == "ints":
        return tuple(int(part) for part in raw.split(",") if part)
    if type_label == "floats":
        return tuple(float(part) for part in raw.split(",") if part)
    if type_label == "strs":
        return tuple(part for part in raw.split(",") if part)
    if type_label == "int_pairs":
        # e.g. "210:1024,1:2048" -> ((210, 1024), (1, 2048))
        pairs = []
        for chunk in raw.split(","):
            if not chunk:
                continue
            left, _, right = chunk.partition(":")
            pairs.append((int(left), int(right)))
        return tuple(pairs)
    raise ValueError(f"unknown param type '{type_label}'")


def _parse_params(spec, assignments: list[str]) -> dict:
    """Turn ``k=v`` strings into typed overrides for ``spec``."""
    overrides = {}
    for assignment in assignments:
        key, separator, value = assignment.partition("=")
        if not separator:
            raise ReproError(f"--param expects key=value, got '{assignment}'")
        if key not in spec.param_schema:
            raise ReproError(
                f"experiment '{spec.id}' has no parameter '{key}'; "
                f"schema: {dict(spec.param_schema)}"
            )
        type_label = spec.param_schema[key]
        try:
            overrides[key] = _coerce_param(value, type_label)
        except ValueError:
            raise ReproError(
                f"cannot parse --param {key}={value!r} as {type_label}"
            ) from None
    return overrides


def _cmd_list(args) -> int:
    specs = specs_by_tag(args.tag) if args.tag else all_specs()
    if args.format == "json":
        payload = [
            {
                "id": spec.id,
                "anchor": spec.anchor,
                "title": spec.title,
                "tags": list(spec.tags),
                "params": dict(spec.param_schema),
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [spec.id, spec.anchor, ",".join(spec.tags), spec.title] for spec in specs
        ]
        print(format_markdown_table(["id", "anchor", "tags", "title"], rows))
        print(f"\n{len(specs)} experiments registered.")
    return 0


def _cmd_run(args) -> int:
    specs = [get_spec(experiment_id) for experiment_id in args.ids]
    # A --param applies to every requested spec that declares the key, so
    # shared parameters (e.g. `datasets` on fig15/fig16/tab10) fan out while
    # mixed-schema multi-id runs still work; a key no spec declares errors.
    for assignment in args.param:
        key = assignment.partition("=")[0]
        if not any(key in spec.param_schema for spec in specs):
            raise ReproError(
                f"no requested experiment has a parameter '{key}'; "
                + "; ".join(f"{spec.id}: {sorted(spec.param_schema)}" for spec in specs)
            )
    overrides_by_id = {}
    for spec in specs:
        overrides = dict(spec.smoke_params) if args.smoke else {}
        applicable = [
            assignment for assignment in args.param
            if assignment.partition("=")[0] in spec.param_schema
        ]
        overrides.update(_parse_params(spec, applicable))
        overrides_by_id[spec.id] = overrides
    tables = engine.run_many(
        args.ids,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        overrides_by_id=overrides_by_id,
    )
    for table in tables:
        source = table.provenance.get("cache", "off")
        print(
            f"[{table.experiment_id}] {table.title} — {len(table)} rows "
            f"(cache {source})",
            file=sys.stderr,
        )
    if args.format == "json":
        # One document per request: a single object for one id, a JSON array
        # for several, so the output always parses as one JSON value.
        documents = [json.loads(table.to_json()) for table in tables]
        payload = documents[0] if len(documents) == 1 else documents
        output = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        output = "\n\n".join(table.to_csv() for table in tables)
    else:
        output = (
            "\n\n".join(f"## {table.title}\n\n{table.to_markdown()}" for table in tables)
            + "\n"
        )
    if args.output:
        Path(args.output).write_text(output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(output, end="")
    return 0


def _cmd_report(args) -> int:
    path = report.write_report(
        args.output,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        workers=args.workers,
        smoke=args.smoke,
    )
    print(f"wrote {path}")
    return 0


def _cmd_cache(args) -> int:
    if args.action == "clear":
        removed = engine.clear_cache(args.cache_dir)
        print(f"removed {removed} cached result(s)")
    elif args.stats or args.action == "stats":
        print(json.dumps(engine.cache_stats(args.cache_dir), indent=2))
    else:
        info = engine.cache_info(args.cache_dir)
        print(json.dumps(info, indent=2))
    return 0


def _emit(args, output: str) -> None:
    """Print ``output`` or write it to ``--output FILE``."""
    if args.output:
        Path(args.output).write_text(output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(output, end="")


def _given_flags(args) -> list[str]:
    """Dests of the flags ``args`` sets away from their argparse default."""
    defaults = vars(build_parser().parse_args([args.command]))
    return [dest for dest, value in vars(args).items() if value != defaults[dest]]


def _unread_flags(args, given, reads) -> list[str]:
    """The ``given`` flags outside ``reads``, named as on the command line.

    Every mode reads ``--format`` and ``--output``.
    """
    return [
        f"positional {dest.upper()} ({getattr(args, dest)!r})"
        if dest in ("scenario", "space") else f"--{dest.replace('_', '-')}"
        for dest in given
        if dest not in reads and dest not in ("format", "output")
    ]


def _cmd_backends(args) -> int:
    from repro.backends import describe_backend, describe_backends

    if args.name:
        description = describe_backend(args.name)
        if args.format == "json":
            _emit(args, json.dumps(description, indent=2) + "\n")
        else:
            rows = [
                [key, ",".join(value) if isinstance(value, list) else value]
                for key, value in description.items()
            ]
            _emit(args, format_markdown_table(["field", "value"], rows) + "\n")
        return 0
    rows = describe_backends()
    if args.format == "json":
        _emit(args, json.dumps(rows, indent=2) + "\n")
    else:
        headers = ["name", "family", "symbolic", "power (W)", "schedulers",
                   "description"]
        table = format_markdown_table(
            headers,
            [
                [
                    row["name"],
                    row["family"],
                    "yes" if row["symbolic_friendly"] else "no",
                    row["power_watts"],
                    ",".join(row["schedulers"]),
                    row["description"],
                ]
                for row in rows
            ],
        )
        _emit(args, table + f"\n\n{len(rows)} backends registered.\n")
    return 0


def _serve_window_s(args) -> float | None:
    """Telemetry window in seconds, or None when telemetry is off."""
    if not (args.telemetry or args.dashboard):
        return None
    return args.window_ms * 1e-3


def _export_telemetry(args, result, source) -> None:
    """Write ``--telemetry FILE`` in the requested format, if asked."""
    if not args.telemetry:
        return
    from repro.serving import exporters

    series = result.telemetry
    if args.telemetry_format == "prom":
        Path(args.telemetry).write_text(exporters.to_prometheus(series))
    else:
        exporters.write_jsonl(args.telemetry, series, source=source)
    print(
        f"telemetry ({args.telemetry_format}, {series.num_windows} windows) "
        f"-> {args.telemetry}",
        file=sys.stderr,
    )


def _render_serve_dashboard(result, title: str) -> str:
    """The ``--dashboard`` terminal view over a run's telemetry series."""
    from repro.serving import exporters

    return exporters.render_dashboard(result.telemetry, title=title)


def _run_report(result, slo_s: float) -> dict:
    """Provenance, summary, per-workload and per-backend rows of one run."""
    from repro.serving import metrics

    return {
        "provenance": result.provenance,
        "summary": metrics.summarize_result(result, slo_s),
        "per_workload": metrics.per_workload_summary(result, slo_s),
        "per_backend": metrics.per_backend_summary(result, slo_s),
    }


def _emit_runs(args, runs, *, many: bool = False) -> None:
    """Emit served runs as ``--format`` asks.

    Each run is ``(payload, heading, sections)``.  ``payload`` is the run's
    JSON object and carries :func:`_run_report`'s rows; markdown prints
    ``heading``, the summary table, the per-workload table and, for a
    heterogeneous fleet, the per-backend table, then one metric table per
    ``(title, pairs)`` entry of ``sections``.  A suite (``many``) prints a
    JSON list, even of one run.
    """
    if args.format == "json":
        payloads = [payload for payload, _, _ in runs]
        _emit(args, json.dumps(payloads if many else payloads[0], indent=2) + "\n")
        return
    blocks = []
    for payload, heading, sections in runs:
        lines = [heading, "", _metric_table(payload["summary"].items())]
        per_backend = payload["per_backend"]
        for rows in (
            payload["per_workload"], per_backend if len(per_backend) > 1 else ()
        ):
            if rows:
                headers = list(rows[0])
                lines += ["", format_markdown_table(
                    headers, [[row[h] for h in headers] for row in rows]
                )]
        for title, pairs in sections:
            lines += ["", f"### {title}", "", _metric_table(pairs)]
        blocks.append("\n".join(lines))
    _emit(args, "\n\n".join(blocks) + "\n")


def _metric_table(pairs) -> str:
    """A two-column ``metric | value`` markdown table."""
    return format_markdown_table(["metric", "value"], list(pairs))


def _serve_list(args, _backends) -> int:
    """``repro serve --list`` — enumerate the scenario presets."""
    from repro.serving import scenarios

    presets = list(scenarios.SCENARIOS.values())
    if args.format == "json":
        payload = [
            {
                "scenario": s.name,
                "num_chips": s.num_chips,
                "router": s.router,
                "policy": s.policy,
                "slo_ms": s.slo_s * 1e3,
                "description": s.description,
            }
            for s in presets
        ]
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        rows = [
            [s.name, s.num_chips, s.router, s.policy,
             f"{s.slo_s * 1e3:g}", s.description]
            for s in presets
        ]
        table = format_markdown_table(
            ["scenario", "chips", "router", "policy", "slo (ms)", "description"],
            rows,
        )
        _emit(args, table + "\n")
    return 0


def _serve_smoke(args, _backends) -> int:
    """``repro serve --smoke`` — every serving experiment at smoke scale."""
    serving_specs = specs_by_tag("serving")
    tables = engine.run_many(
        [spec.id for spec in serving_specs],
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        overrides_by_id={
            spec.id: dict(spec.smoke_params) for spec in serving_specs
        },
    )
    if args.format == "json":
        documents = [json.loads(table.to_json()) for table in tables]
        _emit(args, json.dumps(documents, indent=2) + "\n")
    else:
        _emit(
            args,
            "".join(
                f"## {table.title}\n\n{table.to_markdown()}\n\n"
                for table in tables
            ),
        )
    return 0


def _serve_trace_replay(args, backends) -> int:
    """``repro serve --trace FILE`` — streamed replay of a recorded trace."""
    from repro.serving.trace import RequestTrace, replay_trace

    trace = RequestTrace(args.trace)
    result = replay_trace(
        args.trace,
        num_chips=args.chips,
        router=args.router or "jsq",
        policy=args.policy or "continuous",
        backends=backends,
        chunk_size=args.chunk_size,
        shards=args.shards,
        shard_workers=args.shard_workers,
        telemetry_window_s=_serve_window_s(args),
    )
    _export_telemetry(
        args, result,
        source={"trace": trace.path.name, "requests": trace.num_requests},
    )
    if args.dashboard:
        _emit(args, _render_serve_dashboard(
            result, f"Trace replay telemetry — {trace.path.name}"
        ))
        return 0
    payload = {
        "trace": str(args.trace),
        "trace_info": {
            "num_requests": trace.num_requests,
            "duration_s": trace.info.duration_s,
            "workloads": list(trace.workloads),
            "source": dict(trace.info.source),
        },
        **_run_report(result, args.slo_ms * 1e-3),
    }
    heading = (
        f"## Trace replay — {args.trace} "
        f"({trace.num_requests} requests, {len(trace.workloads)} workloads)"
    )
    _emit_runs(args, [(payload, heading, ())])
    return 0


def _serve_record(args, _backends) -> int:
    """``repro serve SCENARIO --record FILE`` — record traffic to a trace."""
    from repro.serving.trace import record_scenario

    info = record_scenario(
        args.record,
        args.scenario,
        seed=args.seed,
        load_scale=args.load_scale,
        duration_scale=args.duration_scale,
    )
    if args.format == "json":
        payload = {
            "trace": info.path,
            "num_requests": info.num_requests,
            "duration_s": info.duration_s,
            "workloads": list(info.workloads),
            "source": dict(info.source),
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        rows = [
            ["trace", info.path],
            ["num_requests", info.num_requests],
            ["duration_s", round(info.duration_s, 4)],
            ["workloads", ",".join(info.workloads)],
        ]
        _emit(args, format_markdown_table(["field", "value"], rows) + "\n")
        print(
            f"recorded {info.num_requests} requests "
            f"({info.duration_s:.3f} s, workloads: {', '.join(info.workloads)}) "
            f"to {info.path}",
            file=sys.stderr,
        )
    return 0


def _serve_profile(args, backends) -> int:
    """``repro serve SCENARIO --profile`` — per-phase wall-clock breakdown."""
    from repro.serving.profile import profile_scenario

    if len(set(backends)) > 1:
        raise ReproError(
            "--profile needs a homogeneous fleet; name at most one --backend"
        )
    payload = profile_scenario(
        args.scenario,
        seed=args.seed,
        load_scale=args.load_scale,
        duration_scale=args.duration_scale,
        num_chips=args.chips,
        router=args.router,
        policy=args.policy,
        backend=backends[0] if backends else None,
        shards=args.shards,
        shard_workers=args.shard_workers,
    )
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return 0
    sharding = ""
    if "shards" in payload:
        sharding = (
            f", shards {payload['shards']}"
            f" (effective {payload['shards_effective']})"
        )
    lines = [
        f"## Profile — scenario '{payload['scenario']}' "
        f"({payload['num_requests']} requests, {payload['num_chips']} chips, "
        f"router {payload['router']}, policy {payload['policy']}{sharding})",
        "",
        format_markdown_table(
            ["phase", "seconds", "calls", "share (%)"],
            [
                [row["phase"], row["seconds"], row["calls"], row["share_pct"]]
                for row in payload["phases"]
            ],
        ),
        "",
        format_markdown_table(
            ["metric", "value"],
            [
                ["instrumented run (s)", payload["instrumented_run_s"]],
                ["uninstrumented run (s)", payload["uninstrumented_run_s"]],
                ["fast-path speedup (x)", payload["fast_path_speedup_x"]],
                ["warm-up run (s)", payload["warmup_run_s"]],
            ],
        ),
    ]
    if "event_paths" in payload:
        paths = payload["event_paths"]
        engine = (
            f" (coupled engine: {payload['coupled_engine']})"
            if "coupled_engine" in payload
            else ""
        )
        lines += [
            "",
            f"Dispatch paths of the uninstrumented run{engine}:",
            "",
            format_markdown_table(
                ["dispatch path", "requests", "spans"],
                [
                    ["water-fill (vectorized jsq)",
                     paths["water_fill_requests"],
                     paths["water_fill_spans"]],
                    ["bulk idle-disjoint runs",
                     paths["bulk_run_requests"],
                     paths["bulk_runs"]],
                    ["scalar event loop", paths["scalar_requests"], "-"],
                ],
            ),
        ]
    if "shard_fallback" in payload:
        lines += [
            "",
            "Sharding fell back to the single-shard core: "
            f"{payload['shard_fallback']}.",
        ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _serve_suite(args, backends) -> int:
    """``repro serve A[,B...] --jobs N`` — fan cases across a process pool."""
    from repro.serving.scenarios import get_scenario
    from repro.serving.suite import SuiteCase, run_suite

    names = [name.strip() for name in args.scenario.split(",") if name.strip()]
    for name in names:
        get_scenario(name)  # fail fast on typos before forking workers
    cases = [
        SuiteCase(
            scenario=name,
            seed=args.seed,
            load_scale=args.load_scale,
            duration_scale=args.duration_scale,
            num_chips=args.chips,
            router=args.router,
            policy=args.policy,
            backends=backends,
        )
        for name in names
    ]
    results = run_suite(cases, jobs=args.jobs)
    runs = [
        (
            {
                "scenario": res.scenario,
                "provenance": res.provenance,
                "summary": res.summary,
                "per_workload": res.per_workload,
                "per_backend": res.per_backend,
            },
            f"## Scenario '{res.scenario}' — {res.description}",
            (),
        )
        for res in results
    ]
    _emit_runs(args, runs, many=True)
    if args.format != "json":
        print(
            f"ran {len(results)} scenario case(s) with --jobs {args.jobs}",
            file=sys.stderr,
        )
    return 0


def _serve_scenario(args, backends) -> int:
    """``repro serve SCENARIO [--smoke]`` — one scenario preset, end to end."""
    from repro.serving import metrics, scenarios

    chaos_timeline = None
    if args.chaos:
        from repro.serving.chaos import ChaosTimeline

        chaos_timeline = ChaosTimeline.load(args.chaos)
        if not chaos_timeline:
            raise ReproError(f"chaos timeline {args.chaos} has no incidents")
    session_override = None
    if args.sessions or args.users is not None:
        import dataclasses

        from repro.serving.scenarios import SERVED_WORKLOADS
        from repro.serving.sessions import SessionConfig

        base = scenarios.get_scenario(args.scenario).sessions
        if base is None:
            base = SessionConfig(
                users=32, turns=4, sessions_per_user=2,
                think_time_s=0.005, session_gap_s=0.02, start_spread_s=0.2,
                mix=tuple((name, 1.0) for name in SERVED_WORKLOADS),
            )
        if args.users is not None:
            base = dataclasses.replace(base, users=args.users)
        session_override = base
    controller_config = None
    if args.controller is not None:
        from repro.serving.control import ControllerConfig

        controller_config = ControllerConfig(
            policy=args.controller,
            interval_s=args.control_interval_ms * 1e-3,
        )
    # `SCENARIO --smoke` = that one scenario, shrunk to smoke scale.
    duration_scale = args.duration_scale * (0.2 if args.smoke else 1.0)
    scenario, result = scenarios.run_scenario(
        args.scenario,
        seed=args.seed,
        load_scale=args.load_scale,
        duration_scale=duration_scale,
        num_chips=args.chips,
        router=args.router,
        policy=args.policy,
        backends=backends or None,
        shards=args.shards,
        shard_workers=args.shard_workers,
        telemetry_window_s=_serve_window_s(args),
        chaos=chaos_timeline,
        sessions=session_override,
        controller=controller_config,
    )
    _export_telemetry(
        args, result,
        source={"scenario": scenario.name, "seed": args.seed,
                "load_scale": args.load_scale,
                "duration_scale": args.duration_scale},
    )
    if args.dashboard:
        _emit(args, _render_serve_dashboard(
            result, f"Scenario '{scenario.name}' telemetry"
        ))
        return 0
    payload = {
        "scenario": scenario.name,
        **_run_report(result, scenario.slo_s),
    }
    sections = []
    controller_info = result.provenance.get("controller")
    if controller_info is not None:
        sections.append(("Controller", [
            ["policy", controller_info["policy"]],
            ["interval (ms)", f"{controller_info['interval_s'] * 1e3:g}"],
            ["initial chips", controller_info["initial_chips"]],
            ["peak chips", controller_info["peak_chips"]],
            ["final active", controller_info["final_active"]],
            ["scale-ups", controller_info["scale_ups"]],
            ["scale-downs", controller_info["scale_downs"]],
            ["shed (admission)", controller_info["shed_admission"]],
            ["final router", controller_info["final_router"]],
            ["final max batch", controller_info["final_max_batch_size"]],
        ]))
    if result.incidents or result.requests_lost or result.requests_shed:
        resilience = metrics.resilience_metrics(result)
        payload["resilience"] = resilience
        sections.append(("Resilience", [
            [key, _render_resilience_value(value)]
            for key, value in resilience.items()
        ]))
    heading = f"## Scenario '{scenario.name}' — {scenario.description}"
    _emit_runs(args, [(payload, heading, sections)])
    return 0


class _ServeMode(NamedTuple):
    """One ``repro serve`` mode: what it is, the flags it reads, its runner."""

    #: completes "FLAG only applies to other `repro serve` modes; ..."
    what: str
    #: argparse dests the mode reads besides --format and --output
    reads: tuple[str, ...]
    run: Callable


_TRAFFIC = ("scenario", "seed", "load_scale", "duration_scale")
_FLEET = ("chips", "router", "policy", "backend")
_SHARDING = ("shards", "shard_workers")
_TELEMETRY = ("telemetry", "telemetry_format", "window_ms", "dashboard")
_CLOSED_LOOP = ("chaos", "sessions", "users", "controller",
                "control_interval_ms")

#: ``repro serve`` modes in the order :func:`_serve_mode` tries them.  A
#: flag set away from its default that the mode does not read is an
#: error, never silently dropped.
_SERVE_MODES = {
    "list": _ServeMode(
        "`repro serve --list` only enumerates the scenario presets",
        ("list",), _serve_list,
    ),
    "smoke": _ServeMode(
        "`repro serve --smoke` runs every serving experiment at smoke scale",
        ("smoke", "no_cache", "cache_dir"), _serve_smoke,
    ),
    "suite": _ServeMode(
        "--jobs (or a comma-separated SCENARIO list) runs a suite of "
        "independent scenario cases",
        ("jobs", *_TRAFFIC, *_FLEET), _serve_suite,
    ),
    "record": _ServeMode(
        "--record only captures a scenario's traffic, not a fleet",
        ("record", *_TRAFFIC), _serve_record,
    ),
    "trace": _ServeMode(
        "a --trace replay is deterministic",
        ("trace", "slo_ms", "chunk_size", *_FLEET, *_SHARDING, *_TELEMETRY),
        _serve_trace_replay,
    ),
    "profile": _ServeMode(
        "--profile times the open-loop pipeline phases of one scenario run",
        ("profile", *_TRAFFIC, *_FLEET, *_SHARDING), _serve_profile,
    ),
    "scenario_smoke": _ServeMode(
        "`repro serve SCENARIO --smoke` runs one scenario at smoke scale",
        ("smoke", *_TRAFFIC, "chips", "router", "policy", *_CLOSED_LOOP),
        _serve_scenario,
    ),
    "scenario": _ServeMode(
        "a scenario run pins its own SLO and reads no result cache",
        (*_TRAFFIC, *_FLEET, *_SHARDING, *_TELEMETRY, *_CLOSED_LOOP),
        _serve_scenario,
    ),
}


def _serve_mode(args) -> str:
    """The ``_SERVE_MODES`` key of a ``repro serve`` invocation."""
    if args.list:
        return "list"
    if args.smoke and not args.scenario:
        return "smoke"
    if args.jobs != 1 or "," in (args.scenario or ""):
        return "suite"
    for mode in ("record", "trace", "profile"):
        if getattr(args, mode):
            return mode
    return "scenario_smoke" if args.smoke else "scenario"


#: ``repro serve`` flags that only mean something next to another one:
#: (flag, flags any of which it needs, error)
_SERVE_NEEDS = (
    ("telemetry_format", ("telemetry",), "--telemetry-format needs --telemetry"),
    ("window_ms", ("telemetry", "dashboard"),
     "--window-ms needs --telemetry or --dashboard"),
    ("control_interval_ms", ("controller",),
     "--control-interval-ms needs --controller"),
    ("shard_workers", ("shards",),
     "--shard-workers needs --shards greater than 1"),
)


def _cmd_serve(args) -> int:
    backends = tuple(
        name.strip()
        for chunk in args.backend
        for name in chunk.split(",")
        if name.strip()
    )
    if args.backend and not backends:
        raise ReproError(
            "--backend was given but named no backends; see `repro backends` "
            "for the registry listing"
        )
    mode = _SERVE_MODES[_serve_mode(args)]
    given = _given_flags(args)
    stray = _unread_flags(args, given, mode.reads)
    if stray:
        raise ReproError(
            f"{', '.join(stray)} only appl{'ies' if len(stray) == 1 else 'y'} "
            f"to other `repro serve` modes; {mode.what}"
        )
    if "scenario" in mode.reads and not args.scenario:
        raise ReproError(
            "--record needs a scenario to record (see --list)" if args.record
            else "repro serve needs a scenario name (see --list), --smoke or "
                 "--list"
        )
    for dest, needs, message in _SERVE_NEEDS:
        if dest in given and not any(need in given for need in needs):
            raise ReproError(message)
    if args.window_ms <= 0:
        raise ReproError(
            f"--window-ms must be positive, got {args.window_ms:g}"
        )
    if args.dashboard and args.format == "json":
        raise ReproError(
            "--dashboard renders a terminal view; it does not combine "
            "with --format json (export with --telemetry instead)"
        )
    return mode.run(args, backends)


def _render_resilience_value(value):
    """Render one Resilience-table cell; never-recovered shows as em dash."""
    if value is None:
        return "—"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _coerce_option(flag: str, raw: object, type_label: str):
    """Coerce one CLI option value, mapping parse failures to typed errors."""
    try:
        return _coerce_param(str(raw), type_label)
    except ValueError:
        raise ReproError(f"cannot parse {flag} {raw!r} as {type_label}") from None


#: ``(engine parameter, flag, argparse dest)`` of every typed ``repro dse``
#: option; an action's spec takes the ones in its parameter schema
_DSE_OPTIONS = (
    ("workloads", "--workloads", "workloads"),
    ("batch_sizes", "--batch-sizes", "batch_sizes"),
    ("objectives", "--objectives", "objectives"),
    ("offered_rps", "--offered-rps", "offered_rps"),
    ("target_p99_ms", "--target-p99", "target_p99"),
    ("chip_counts", "--chips", "chips"),
    ("routers", "--routers", "routers"),
    ("policies", "--policies", "policies"),
    ("requests", "--requests", "requests"),
)


def _dse_overrides(args, spec) -> dict:
    """Typed engine overrides from the ``repro dse`` option set."""
    overrides = dict(spec.smoke_params) if args.smoke else {}
    if getattr(args, "space", None):
        overrides["space"] = args.space
    for key, flag, dest in _DSE_OPTIONS:
        raw = getattr(args, dest)
        if raw is not None and key in spec.param_schema:
            overrides[key] = _coerce_option(flag, raw, spec.param_schema[key])
    return overrides


def _dse_table(args, table, extra_sections=()) -> None:
    """Emit one dse result table (plus optional extra markdown sections)."""
    if args.format == "json":
        _emit(args, table.to_json() + "\n")
        return
    lines = [f"## {table.title}", "", table.to_markdown()]
    for section_title, section_body in extra_sections:
        lines.extend(["", f"### {section_title}", "", section_body])
    _emit(args, "\n".join(lines) + "\n")


_DSE_SWEEP = ("action", "space", "smoke", "workloads", "batch_sizes",
              "objectives", "no_cache", "cache_dir")
#: The flags each ``repro dse`` action reads; any other flag set away from
#: its default is an error, never silently dropped.
_DSE_READS = {
    "list": ("action",),
    "run": _DSE_SWEEP,
    "frontier": _DSE_SWEEP,
    "plan": ("action", "smoke", "offered_rps", "target_p99", "chips",
             "routers", "policies", "requests", "no_cache", "cache_dir"),
}


def _cmd_dse(args) -> int:
    from repro.dse import describe_design_spaces

    stray = _unread_flags(args, _given_flags(args), _DSE_READS[args.action])
    if stray:
        raise ReproError(
            f"`repro dse {args.action}` does not accept: {', '.join(stray)}"
        )
    if args.action == "list":
        rows = describe_design_spaces()
        if args.format == "json":
            _emit(args, json.dumps(rows, indent=2) + "\n")
        else:
            headers = ["space", "axes", "points", "smoke_points", "description"]
            table = format_markdown_table(
                headers, [[row[h] for h in headers] for row in rows]
            )
            _emit(args, table + f"\n\n{len(rows)} design spaces registered.\n")
        return 0
    if args.action == "plan":
        table = engine.run(
            "dse_capacity",
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            **_dse_overrides(args, get_spec("dse_capacity")),
        )
        recommended = [row for row in table.rows if row.get("recommended")]
        note = (
            "recommended: "
            + ", ".join(
                f"{row['chips']} chip(s), {row['router']} routing, "
                f"{row['policy']} batching ({row['fleet_power_w']} W fleet)"
                for row in recommended
            )
            if recommended
            else "no configuration meets the target; widen the search grid"
        )
        _dse_table(args, table, extra_sections=[("Recommendation", note)])
        return 0
    # run / frontier share the sweep option set; `run` prints the full
    # annotated sweep plus its frontier subset, `frontier` only the latter.
    spec_id = "dse_sweep" if args.action == "run" else "dse_frontier"
    spec = get_spec(spec_id)
    table = engine.run(
        spec_id,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        **_dse_overrides(args, spec),
    )
    if args.action == "frontier":
        _dse_table(args, table)
        return 0
    frontier_rows = [row for row in table.rows if row.get("pareto")]
    frontier_md = format_markdown_table(
        table.headers, [[row.get(h, "") for h in table.headers] for row in frontier_rows]
    )
    _dse_table(
        args,
        table,
        extra_sections=[
            (
                f"Pareto frontier ({len(frontier_rows)} of {len(table)} designs)",
                frontier_md,
            )
        ],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the CogSys reproduction's registered experiments.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="enumerate registered experiments")
    list_parser.add_argument("--tag", help="only experiments carrying this tag")
    list_parser.add_argument("--format", choices=("md", "json"), default="md")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="execute experiments by id")
    run_parser.add_argument("ids", nargs="+", metavar="ID", help="experiment id(s)")
    run_parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="driver parameter override (repeatable); lists are comma-separated",
    )
    run_parser.add_argument("--workers", type=int, default=None, metavar="N",
                            help="run ids in N worker processes")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="bypass the on-disk result cache")
    run_parser.add_argument("--format", choices=("md", "csv", "json"), default="md")
    run_parser.add_argument("--output", metavar="FILE", help="write tables to FILE")
    run_parser.add_argument("--smoke", action="store_true",
                            help="use each spec's smoke-scale parameters")
    run_parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    run_parser.set_defaults(func=_cmd_run)

    report_parser = subparsers.add_parser(
        "report", help="regenerate EXPERIMENTS.md from the registry"
    )
    report_parser.add_argument("--output", default="EXPERIMENTS.md", metavar="FILE")
    report_parser.add_argument("--workers", type=int, default=None, metavar="N")
    report_parser.add_argument("--no-cache", action="store_true")
    report_parser.add_argument("--smoke", action="store_true",
                               help="smoke-scale parameters (CI/tests)")
    report_parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    report_parser.set_defaults(func=_cmd_report)

    cache_parser = subparsers.add_parser("cache", help="inspect or clear the result cache")
    cache_parser.add_argument("action", nargs="?", default="info",
                              choices=("info", "stats", "clear"))
    cache_parser.add_argument("--stats", action="store_true",
                              help="per-experiment entry/byte breakdown")
    cache_parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    cache_parser.set_defaults(func=_cmd_cache)

    serve_parser = subparsers.add_parser(
        "serve", help="run the request-level serving simulator"
    )
    serve_parser.add_argument("scenario", nargs="?", metavar="SCENARIO",
                              help="scenario preset name (see --list); a "
                                   "comma-separated list runs a suite "
                                   "(parallel with --jobs)")
    serve_parser.add_argument("--list", action="store_true",
                              help="enumerate the scenario presets")
    serve_parser.add_argument("--smoke", action="store_true",
                              help="run every serving experiment at smoke "
                                   "scale (with SCENARIO: that one scenario "
                                   "at 0.2x duration)")
    serve_parser.add_argument("--chaos", metavar="FILE",
                              help="inject the chaos timeline (JSON incident "
                                   "file) into the scenario run")
    serve_parser.add_argument("--sessions", action="store_true",
                              help="serve closed-loop session traffic (users "
                                   "with think-time loops) instead of the "
                                   "scenario's open-loop phases")
    serve_parser.add_argument("--users", type=int, default=None, metavar="N",
                              help="closed-loop user population (implies "
                                   "--sessions; default 32)")
    serve_parser.add_argument("--controller", default=None,
                              choices=("target_util", "queue_pid"),
                              help="run the scenario under a closed-loop "
                                   "fleet controller (autoscaling + SLO-aware "
                                   "admission; see repro.serving.control)")
    serve_parser.add_argument("--control-interval-ms", type=float,
                              default=50.0, metavar="MS",
                              help="controller tick period in simulated "
                                   "milliseconds (default 50)")
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="traffic seed (default 0)")
    serve_parser.add_argument("--load-scale", type=float, default=1.0,
                              metavar="X", help="scale every arrival rate by X")
    serve_parser.add_argument("--duration-scale", type=float, default=1.0,
                              metavar="X", help="scale the scenario duration by X")
    serve_parser.add_argument("--chips", type=int, default=None, metavar="N",
                              help="override the scenario's fleet size")
    serve_parser.add_argument("--router", default=None,
                              choices=("round_robin", "jsq", "affinity",
                                       "symbolic_affinity"),
                              help="override the scenario's routing policy")
    serve_parser.add_argument("--backend", action="append", default=[],
                              metavar="NAME[,NAME...]",
                              help="per-chip backend names (repeatable or "
                                   "comma-separated; cycled across the fleet)")
    serve_parser.add_argument("--policy", default=None,
                              choices=("none", "fixed", "continuous"),
                              help="override the scenario's batching policy")
    serve_parser.add_argument("--trace", metavar="FILE",
                              help="replay a recorded request trace through "
                                   "the streaming event core")
    serve_parser.add_argument("--record", metavar="FILE",
                              help="record the scenario's traffic to a JSONL "
                                   "trace instead of serving it")
    serve_parser.add_argument("--slo-ms", type=float, default=5.0, metavar="MS",
                              help="SLO for trace-replay reports (default 5)")
    serve_parser.add_argument("--chunk-size", type=int, default=65536,
                              help=argparse.SUPPRESS)
    serve_parser.add_argument("--shards", type=int, default=1, metavar="N",
                              help="split router-independent sub-fleets into N "
                                   "shard simulations (records identical to "
                                   "a single-shard run)")
    serve_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                              help="run the (comma-separated) scenario cases "
                                   "across N pooled worker processes "
                                   "(see repro.serving.suite)")
    serve_parser.add_argument("--shard-workers", type=int, default=None,
                              metavar="N", help=argparse.SUPPRESS)
    serve_parser.add_argument("--profile", action="store_true",
                              help="per-phase wall-clock breakdown of one "
                                   "scenario run (no serving report)")
    serve_parser.add_argument("--telemetry", metavar="FILE",
                              help="export the windowed telemetry time series "
                                   "to FILE (see --telemetry-format)")
    serve_parser.add_argument("--telemetry-format", default="jsonl",
                              choices=("jsonl", "prom"),
                              help="telemetry export format: self-describing "
                                   "JSONL (default) or Prometheus text")
    serve_parser.add_argument("--window-ms", type=float, default=100.0,
                              metavar="MS",
                              help="telemetry window width in simulated "
                                   "milliseconds (default 100)")
    serve_parser.add_argument("--dashboard", action="store_true",
                              help="render a terminal sparkline dashboard "
                                   "over the windowed series instead of the "
                                   "summary report")
    serve_parser.add_argument("--format", choices=("md", "json"), default="md")
    serve_parser.add_argument("--output", metavar="FILE",
                              help="write the summary to FILE")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="bypass the result cache (--smoke without "
                                   "a SCENARIO only)")
    serve_parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    serve_parser.set_defaults(func=_cmd_serve)

    dse_parser = subparsers.add_parser(
        "dse", help="explore accelerator design spaces (sweeps + Pareto frontiers)"
    )
    dse_parser.add_argument(
        "action",
        nargs="?",
        default="run",
        choices=("list", "run", "frontier", "plan"),
        help="list design spaces, run a sweep, print its frontier, or plan capacity",
    )
    dse_parser.add_argument("space", nargs="?", metavar="SPACE",
                            help="design-space name (see `repro dse list`)")
    dse_parser.add_argument("--smoke", action="store_true",
                            help="smoke-scale grid and parameters (CI/tests)")
    dse_parser.add_argument("--workloads", metavar="W[,W...]",
                            help="workloads to execute on every design point")
    dse_parser.add_argument("--batch-sizes", metavar="N[,N...]",
                            help="batch sizes to execute on every design point")
    dse_parser.add_argument("--objectives", metavar="KEY:SENSE[,...]",
                            help="pareto objectives, e.g. latency_ms:min,area_mm2:min")
    dse_parser.add_argument("--offered-rps", type=float, default=None,
                            metavar="X", help="plan: offered load (requests/s)")
    dse_parser.add_argument("--target-p99", type=float, default=None, metavar="MS",
                            help="plan: tail-latency target in milliseconds")
    dse_parser.add_argument("--chips", default=None, metavar="N[,N...]",
                            help="plan: fleet sizes to search")
    dse_parser.add_argument("--routers", default=None, metavar="R[,R...]",
                            help="plan: routing policies to search")
    dse_parser.add_argument("--policies", default=None, metavar="P[,P...]",
                            help="plan: batching policies to search")
    dse_parser.add_argument("--requests", type=int, default=None, metavar="N",
                            help="plan: request-stream length")
    dse_parser.add_argument("--format", choices=("md", "json"), default="md")
    dse_parser.add_argument("--output", metavar="FILE",
                            help="write the table(s) to FILE")
    dse_parser.add_argument("--no-cache", action="store_true",
                            help="bypass the on-disk result cache")
    dse_parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    dse_parser.set_defaults(func=_cmd_dse)

    backends_parser = subparsers.add_parser(
        "backends", help="list or describe the registered hardware backends"
    )
    backends_parser.add_argument("name", nargs="?", metavar="NAME",
                                 help="describe one backend instead of listing")
    backends_parser.add_argument("--format", choices=("md", "json"), default="md")
    backends_parser.add_argument("--output", metavar="FILE",
                                 help="write the listing to FILE")
    backends_parser.set_defaults(func=_cmd_backends)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
