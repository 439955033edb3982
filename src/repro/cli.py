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
    SLO-aware admission, adaptive batching).
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
from pathlib import Path

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


def _serve_trace_replay(args, backends) -> int:
    """``repro serve --trace FILE`` — streamed replay of a recorded trace."""
    from repro.serving import metrics
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
    slo_s = args.slo_ms * 1e-3
    summary = metrics.summarize_result(result, slo_s)
    breakdown = metrics.per_workload_summary(result, slo_s)
    by_backend = metrics.per_backend_summary(result, slo_s)
    if args.format == "json":
        payload = {
            "trace": str(args.trace),
            "trace_info": {
                "num_requests": trace.num_requests,
                "duration_s": trace.info.duration_s,
                "workloads": list(trace.workloads),
                "source": dict(trace.info.source),
            },
            "provenance": result.provenance,
            "summary": summary,
            "per_workload": breakdown,
            "per_backend": by_backend,
        }
        output = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"## Trace replay — {args.trace} "
            f"({trace.num_requests} requests, {len(trace.workloads)} workloads)",
            "",
        ]
        lines.append(
            format_markdown_table(
                ["metric", "value"], [[key, value] for key, value in summary.items()]
            )
        )
        if breakdown:
            lines.append("")
            headers = list(breakdown[0])
            lines.append(
                format_markdown_table(
                    headers, [[row[h] for h in headers] for row in breakdown]
                )
            )
        if len(by_backend) > 1:
            lines.append("")
            headers = list(by_backend[0])
            lines.append(
                format_markdown_table(
                    headers, [[row[h] for h in headers] for row in by_backend]
                )
            )
        output = "\n".join(lines) + "\n"
    _emit(args, output)
    return 0


def _serve_record(args) -> int:
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


def _serve_suite(args, backends, names) -> int:
    """``repro serve A[,B...] --jobs N`` — fan cases across a process pool."""
    from repro.serving.scenarios import get_scenario
    from repro.serving.suite import SuiteCase, run_suite

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
    if args.format == "json":
        payload = [
            {
                "scenario": res.scenario,
                "provenance": res.provenance,
                "summary": res.summary,
                "per_workload": res.per_workload,
                "per_backend": res.per_backend,
            }
            for res in results
        ]
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return 0
    sections = []
    for res in results:
        lines = [f"## Scenario '{res.scenario}' — {res.description}", ""]
        lines.append(
            format_markdown_table(
                ["metric", "value"],
                [[key, value] for key, value in res.summary.items()],
            )
        )
        if res.per_workload:
            lines.append("")
            headers = list(res.per_workload[0])
            lines.append(
                format_markdown_table(
                    headers,
                    [[row[h] for h in headers] for row in res.per_workload],
                )
            )
        if len(res.per_backend) > 1:
            lines.append("")
            headers = list(res.per_backend[0])
            lines.append(
                format_markdown_table(
                    headers,
                    [[row[h] for h in headers] for row in res.per_backend],
                )
            )
        sections.append("\n".join(lines))
    _emit(args, "\n\n".join(sections) + "\n")
    print(
        f"ran {len(results)} scenario case(s) with --jobs {args.jobs}",
        file=sys.stderr,
    )
    return 0


def _reject_stray_serve_options(args, backends) -> None:
    """Fail fast on flag combinations that would be silently ignored."""
    if args.trace and args.record:
        raise ReproError("--trace and --record are mutually exclusive")
    if args.jobs < 1:
        raise ReproError(f"--jobs must be at least 1, got {args.jobs}")
    suite_mode = args.jobs != 1 or "," in (args.scenario or "")
    if suite_mode:
        stray = [
            flag
            for flag, on in (
                ("--trace", args.trace),
                ("--record", args.record),
                ("--list", args.list),
                ("--smoke", args.smoke),
                ("--profile", args.profile),
                ("--shards", args.shards != 1),
                ("--shard-workers", args.shard_workers is not None),
                ("--telemetry", args.telemetry),
                ("--dashboard", args.dashboard),
                ("--chaos", args.chaos),
                ("--sessions", args.sessions),
                ("--users", args.users is not None),
                ("--controller", args.controller is not None),
            )
            if on
        ]
        if stray:
            raise ReproError(
                "--jobs (or a comma-separated scenario list) runs a suite of "
                "independent scenario cases; it does not combine with: "
                + ", ".join(stray)
            )
    if args.trace:
        stray = []
        if args.scenario:
            stray.append(f"positional SCENARIO ({args.scenario!r})")
        stray.extend(
            flag
            for flag, raw, default in (
                ("--seed", args.seed, 0),
                ("--load-scale", args.load_scale, 1.0),
                ("--duration-scale", args.duration_scale, 1.0),
                ("--chaos", args.chaos, None),
                ("--sessions", args.sessions, False),
                ("--users", args.users, None),
                ("--controller", args.controller, None),
            )
            if raw != default
        )
        if stray:
            raise ReproError(
                "a trace replay is deterministic — it does not accept: "
                + ", ".join(stray)
            )
    if args.record:
        if not args.scenario:
            raise ReproError("--record needs a scenario to record (see --list)")
        stray = [
            flag
            for flag, raw in (
                ("--chips", args.chips),
                ("--router", args.router),
                ("--policy", args.policy),
                ("--slo-ms", None if args.slo_ms == 5.0 else args.slo_ms),
                ("--shards", None if args.shards == 1 else args.shards),
                ("--shard-workers", args.shard_workers),
                ("--chaos", args.chaos),
                ("--sessions", True if args.sessions else None),
                ("--users", args.users),
                ("--controller", args.controller),
            )
            if raw is not None
        ]
        if backends:
            stray.append("--backend")
        if stray:
            raise ReproError(
                "--record only captures traffic, not a fleet; drop: "
                + ", ".join(stray)
            )
    if (args.list or args.smoke) and (args.trace or args.record):
        raise ReproError(
            "--trace/--record do not combine with --list/--smoke"
        )
    if (args.list or args.smoke) and (
        args.shards != 1 or args.shard_workers is not None or args.profile
    ):
        raise ReproError(
            "--shards/--shard-workers/--profile only apply to scenario runs "
            "and trace replays; drop them from --list/--smoke invocations"
        )
    if (args.list or (args.smoke and not args.scenario)) and (
        args.chaos or args.sessions or args.users is not None
    ):
        raise ReproError(
            "--chaos/--sessions/--users apply to a single scenario run "
            "(including `repro serve SCENARIO --smoke`)"
        )
    if args.profile and args.trace:
        raise ReproError(
            "--profile breaks down one scenario run; it does not apply "
            "to --trace replays"
        )
    if args.profile and (args.chaos or args.sessions or args.users is not None):
        raise ReproError(
            "--profile times the open-loop pipeline phases; it does not "
            "combine with --chaos/--sessions/--users"
        )
    if args.controller is not None:
        if args.sessions or args.users is not None:
            raise ReproError(
                "--controller runs are open-loop; closed-loop --sessions/"
                "--users shape their own offered load and cannot be autoscaled"
            )
        if args.profile:
            raise ReproError(
                "--profile times the open-loop pipeline phases; it does not "
                "combine with --controller"
            )
        if args.list:
            raise ReproError(
                "--controller applies to a single scenario run; it does not "
                "combine with --list"
            )
        if args.smoke and not args.scenario:
            raise ReproError(
                "--controller applies to a single scenario run (including "
                "`repro serve SCENARIO --smoke`), not the --smoke suite"
            )
    if args.control_interval_ms <= 0:
        raise ReproError(
            f"--control-interval-ms must be positive, "
            f"got {args.control_interval_ms:g}"
        )
    if args.control_interval_ms != 50.0 and args.controller is None:
        raise ReproError("--control-interval-ms needs --controller")
    if args.users is not None and args.users < 1:
        raise ReproError(f"--users must be positive, got {args.users}")
    if args.shard_workers is not None and args.shards == 1:
        raise ReproError("--shard-workers needs --shards greater than 1")
    telemetry_on = bool(args.telemetry or args.dashboard)
    if telemetry_on and (args.list or args.smoke or args.record or args.profile):
        raise ReproError(
            "--telemetry/--dashboard sample a served run; they do not "
            "combine with --list/--smoke/--record/--profile"
        )
    if not telemetry_on:
        if args.telemetry_format != "jsonl":
            raise ReproError("--telemetry-format needs --telemetry")
        if args.window_ms != 100.0:
            raise ReproError(
                "--window-ms needs --telemetry or --dashboard"
            )
    if args.window_ms <= 0:
        raise ReproError(
            f"--window-ms must be positive, got {args.window_ms:g}"
        )
    if args.dashboard and args.format == "json":
        raise ReproError(
            "--dashboard renders a terminal view; it does not combine "
            "with --format json (export with --telemetry instead)"
        )
    if not args.trace:
        if args.slo_ms != 5.0:
            raise ReproError(
                "--slo-ms only applies to --trace replays; scenario presets "
                "pin their own SLO"
            )
        if args.chunk_size != 65536:
            raise ReproError("--chunk-size only applies to --trace replays")


def _cmd_serve(args) -> int:
    from repro.serving import metrics, scenarios

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
    if backends and (args.list or args.smoke):
        raise ReproError(
            "--backend only applies to scenario runs; drop it from "
            "--list/--smoke invocations"
        )
    _reject_stray_serve_options(args, backends)
    if args.trace:
        return _serve_trace_replay(args, backends)
    if args.record:
        return _serve_record(args)
    if args.list:
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
    if args.smoke and not args.scenario:
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
    if not args.scenario:
        raise ReproError(
            "repro serve needs a scenario name (see --list), --smoke or --list"
        )
    if args.profile:
        return _serve_profile(args, backends)
    names = [name.strip() for name in args.scenario.split(",") if name.strip()]
    if args.jobs != 1 or len(names) > 1:
        return _serve_suite(args, backends, names)
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
    summary = metrics.summarize_result(result, scenario.slo_s)
    breakdown = metrics.per_workload_summary(result, scenario.slo_s)
    by_backend = metrics.per_backend_summary(result, scenario.slo_s)
    resilience = (
        metrics.resilience_metrics(result)
        if result.incidents or result.requests_lost or result.requests_shed
        else None
    )
    if args.format == "json":
        payload = {
            "scenario": scenario.name,
            "provenance": result.provenance,
            "summary": summary,
            "per_workload": breakdown,
            "per_backend": by_backend,
        }
        if resilience is not None:
            payload["resilience"] = resilience
        output = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"## Scenario '{scenario.name}' — {scenario.description}", ""]
        lines.append(
            format_markdown_table(
                ["metric", "value"], [[key, value] for key, value in summary.items()]
            )
        )
        lines.append("")
        headers = list(breakdown[0])
        lines.append(
            format_markdown_table(
                headers, [[row[h] for h in headers] for row in breakdown]
            )
        )
        if len(by_backend) > 1:
            lines.append("")
            headers = list(by_backend[0])
            lines.append(
                format_markdown_table(
                    headers, [[row[h] for h in headers] for row in by_backend]
                )
            )
        controller_info = result.provenance.get("controller")
        if controller_info is not None:
            lines.extend(["", "### Controller", ""])
            lines.append(
                format_markdown_table(
                    ["metric", "value"],
                    [
                        ["policy", controller_info["policy"]],
                        ["interval (ms)",
                         f"{controller_info['interval_s'] * 1e3:g}"],
                        ["initial chips", controller_info["initial_chips"]],
                        ["peak chips", controller_info["peak_chips"]],
                        ["final active", controller_info["final_active"]],
                        ["scale-ups", controller_info["scale_ups"]],
                        ["scale-downs", controller_info["scale_downs"]],
                        ["shed (admission)",
                         controller_info["shed_admission"]],
                        ["final router", controller_info["final_router"]],
                        ["final max batch",
                         controller_info["final_max_batch_size"]],
                    ],
                )
            )
        if resilience is not None:
            lines.extend(["", "### Resilience", ""])
            lines.append(
                format_markdown_table(
                    ["metric", "value"],
                    [
                        [key, _render_resilience_value(value)]
                        for key, value in resilience.items()
                    ],
                )
            )
        output = "\n".join(lines) + "\n"
    _emit(args, output)
    return 0


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


def _dse_overrides(args, spec) -> dict:
    """Typed engine overrides from the ``repro dse`` option set."""
    overrides = dict(spec.smoke_params) if args.smoke else {}
    if getattr(args, "space", None):
        overrides["space"] = args.space
    for key, flag, raw in (
        ("workloads", "--workloads", getattr(args, "workloads", None)),
        ("batch_sizes", "--batch-sizes", getattr(args, "batch_sizes", None)),
        ("objectives", "--objectives", getattr(args, "objectives", None)),
    ):
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


#: repro dse options only meaningful for sweep actions (run/frontier) and
#: only for the capacity planner, used to reject silently-ignored flags.
_DSE_SWEEP_ONLY = ("workloads", "batch_sizes", "objectives")
_DSE_PLAN_ONLY = (
    "offered_rps", "target_p99", "chips", "routers", "policies", "requests"
)


def _reject_stray_dse_options(args) -> None:
    """Fail fast when an option cannot apply to the requested dse action.

    Silently dropping a flag (e.g. ``repro dse plan pe_array`` or
    ``repro dse run --requests 100``) would hand the user default results
    for a configuration that was never applied.
    """
    stray = []
    if args.action in ("list", "plan") and args.space:
        stray.append(f"positional SPACE ({args.space!r})")
    if args.action in ("list", "plan"):
        stray.extend(
            f"--{name.replace('_', '-')}"
            for name in _DSE_SWEEP_ONLY
            if getattr(args, name) is not None
        )
    if args.action in ("list", "run", "frontier"):
        stray.extend(
            f"--{name.replace('_', '-')}"
            for name in _DSE_PLAN_ONLY
            if getattr(args, name) is not None
        )
    if args.action == "list" and args.smoke:
        stray.append("--smoke")
    if stray:
        raise ReproError(
            f"`repro dse {args.action}` does not accept: {', '.join(stray)}"
        )


def _cmd_dse(args) -> int:
    from repro.dse import describe_design_spaces

    _reject_stray_dse_options(args)
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
        spec = get_spec("dse_capacity")
        overrides = dict(spec.smoke_params) if args.smoke else {}
        for key, flag, raw in (
            ("offered_rps", "--offered-rps", args.offered_rps),
            ("target_p99_ms", "--target-p99", args.target_p99),
            ("chip_counts", "--chips", args.chips),
            ("routers", "--routers", args.routers),
            ("policies", "--policies", args.policies),
            ("requests", "--requests", args.requests),
        ):
            if raw is not None:
                overrides[key] = _coerce_option(flag, raw, spec.param_schema[key])
        table = engine.run(
            "dse_capacity",
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            **overrides,
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
                              help="bypass the result cache (--smoke only)")
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
