"""Span tracing of the ``repro`` layers, installed from outside the program.

No source file of ``repro`` is edited.  :class:`Instrumentation` wraps the
public entry points of each layer (class attributes, module-level function
bindings and the workload-builder registry) so that every call records a
span: a name, a start, an end and the index of the span that caused it.
Spans stay in memory; :func:`layer_metrics` turns one window of them into
per-layer self times and counts.

A span's *self time* is its duration minus the durations of its direct
children, so nested layers never count twice and the self times of one
iteration add up to its traced wall time.  ``backends.cache_fill_s`` and
``evaluation.<experiment_id>_s`` are the exceptions: they are inclusive
(a cache fill is the build + schedule + cycle model beneath it; an
experiment is everything its driver does).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

__all__ = [
    "EXPERIMENT_IDS",
    "PER_LAYER_UNITS",
    "SETUP_METRICS",
    "Instrumentation",
    "Tracer",
    "layer_metrics",
    "served_requests",
]

#: registered experiment ids, in paper order; one ``evaluation.<id>_s``
#: metric each (fixed here so the metric set does not drift with the registry)
EXPERIMENT_IDS = (
    "fig04a", "fig04c", "fig04d", "fig05", "fig06", "tab02", "fig08",
    "tab03", "tab04", "tab05", "fig11a", "fig11c", "fig12", "tab07a",
    "tab07b", "tab08", "tab09", "fig15", "fig16", "fig17", "fig18", "fig19",
    "tab10", "serve_load", "serve_batch", "serve_fleet", "serve_scenarios",
    "serve_hetero", "serve_trace", "serve_chaos", "serve_control",
    "dse_sweep", "dse_frontier", "dse_capacity", "accuracy_overview",
)

#: metric -> span names whose self times it sums
_SELF_TIMES = {
    "neural.layer_init_s": ("neural.layer_init",),
    "workloads.build_s": ("workloads.build",),
    "scheduler.schedule_s": ("scheduler.schedule", "scheduler.ready_kernels"),
    "hardware.kernel_cycles_s": ("hardware.kernel_cycles",),
    "backends.execute_s": ("backends.execute",),
    "core.factorize_s": ("core.factorize",),
    "serving.traffic_s": ("serving.traffic",),
    "serving.trace_read_s": ("serving.trace_read",),
    "serving.simulate_s": ("serving.simulate",),
    "serving.control_s": ("serving.control",),
    "serving.sessions_s": ("serving.sessions",),
    "serving.chaos_s": ("serving.chaos",),
    "serving.telemetry_s": ("serving.telemetry",),
    "serving.metrics_s": ("serving.metrics",),
    "dse.sweep_s": ("dse.sweep",),
    "dse.plan_s": ("dse.plan",),
    "evaluation.render_s": ("evaluation.render",),
}

#: metric -> span name whose calls it counts
_CALLS = {
    "neural.layer_inits": "neural.layer_init",
    "workloads.builds": "workloads.build",
    "scheduler.schedules": "scheduler.schedule",
    "scheduler.ready_kernels_calls": "scheduler.ready_kernels",
    "hardware.kernel_cycles_calls": "hardware.kernel_cycles",
    "backends.executes": "backends.execute",
    "backends.cache_fills": "backends.cache_fill",
    "core.factorize_calls": "core.factorize",
}

#: metric -> span name whose outermost spans' item counts it sums
_ITEMS = {
    "workloads.kernels_built": "workloads.build",
    "scheduler.kernels_scheduled": "scheduler.schedule",
    "serving.requests_generated": "serving.traffic",
    "serving.simulated_requests": "serving.simulate",
}

#: every per-layer metric of a traced iteration, with its unit
PER_LAYER_UNITS = {
    "neural.layer_init_s": "s",
    "neural.layer_inits": "count",
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "workloads.kernels_built": "count",
    "scheduler.schedule_s": "s",
    "scheduler.schedules": "count",
    "scheduler.ready_kernels_calls": "count",
    "scheduler.kernels_scheduled": "count",
    "hardware.kernel_cycles_s": "s",
    "hardware.kernel_cycles_calls": "count",
    "backends.execute_s": "s",
    "backends.executes": "count",
    "backends.cache_lookups": "count",
    "backends.cache_fills": "count",
    "backends.cache_fill_s": "s",
    "backends.cache_hit_ratio": "ratio",
    "core.factorize_s": "s",
    "core.factorize_calls": "count",
    "serving.traffic_s": "s",
    "serving.requests_generated": "count",
    "serving.traffic_us_per_request": "us/req",
    "serving.trace_read_s": "s",
    "serving.simulate_s": "s",
    "serving.simulated_requests": "count",
    "serving.control_s": "s",
    "serving.sessions_s": "s",
    "serving.chaos_s": "s",
    "serving.telemetry_s": "s",
    "serving.metrics_s": "s",
    "dse.sweep_s": "s",
    "dse.plan_s": "s",
    **{f"evaluation.{experiment}_s": "s" for experiment in EXPERIMENT_IDS},
    "evaluation.render_s": "s",
    # Time no wrapped layer claims: the benchmark's own loop and the
    # callers' glue code between layer calls.
    "trace.unattributed_s": "s",
}

#: per-layer metrics also reported for the (single, traced) set-up phase
SETUP_METRICS = (
    "neural.layer_init_s",
    "workloads.build_s",
    "workloads.builds",
    "scheduler.schedule_s",
    "backends.cache_fills",
    "backends.cache_fill_s",
    "serving.traffic_s",
)

# Span record fields (a list, for cheap construction and in-place update).
_NAME, _START, _END, _PARENT, _ITEMS_N, _OUTER = range(6)


class Tracer:
    """In-memory span recorder with a single (host thread) span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        """Start a span as a child of the innermost open span."""
        spans = self.spans
        stack = self._stack
        outer = True
        for index in stack:
            if spans[index][_NAME] == name:
                outer = False
                break
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None, outer]
        stack.append(len(spans))
        spans.append(span)
        return span

    def close(self, span: list) -> None:
        """End the innermost open span (which must be ``span``)."""
        span[_END] = perf_counter()
        self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh window.

        Parent indices are window-relative, so a window can only be taken
        while no span is open.
        """
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer self times and counts of one window of spans."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_s[span[_PARENT]] += span[_END] - span[_START]
    self_s: defaultdict[str, float] = defaultdict(float)
    outer_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    items: Counter[str] = Counter()
    for index, span in enumerate(spans):
        name = span[_NAME]
        duration = span[_END] - span[_START]
        self_s[name] += duration - child_s[index]
        calls[name] += 1
        if span[_OUTER]:
            outer_s[name] += duration
            if span[_ITEMS_N] is not None:
                items[name] += span[_ITEMS_N]

    metrics: dict[str, float] = {}
    for metric, names in _SELF_TIMES.items():
        metrics[metric] = sum(self_s[name] for name in names)
    for metric, name in _CALLS.items():
        metrics[metric] = calls[name]
    for metric, name in _ITEMS.items():
        metrics[metric] = items[name]
    lookups = calls["backends.cache_fill"] + calls["backends.cache_hit"]
    metrics["backends.cache_lookups"] = lookups
    metrics["backends.cache_fill_s"] = outer_s["backends.cache_fill"]
    # No lookup means no miss: a window that never asked the cache wasted
    # nothing in it.
    metrics["backends.cache_hit_ratio"] = (
        calls["backends.cache_hit"] / lookups if lookups else 1.0
    )
    generated = items["serving.traffic"]
    metrics["serving.traffic_us_per_request"] = (
        1e6 * self_s["serving.traffic"] / generated if generated else 0.0
    )
    for experiment in EXPERIMENT_IDS:
        metrics[f"evaluation.{experiment}_s"] = outer_s[f"evaluation.{experiment}"]
    attributed = sum(metrics[metric] for metric in _SELF_TIMES)
    metrics["trace.unattributed_s"] = wall_s - attributed
    return metrics


#: span names of the serving runs whose offered requests an iteration counts
_SERVING_RUNS = frozenset(
    {"serving.simulate", "serving.chaos", "serving.control", "serving.sessions"}
)


def served_requests(spans: list[list]) -> int:
    """Requests offered to every outermost serving run in ``spans``."""
    return sum(
        span[_ITEMS_N]
        for span in spans
        if span[_OUTER] and span[_ITEMS_N] is not None
        and span[_NAME] in _SERVING_RUNS
    )


def _arrived(span, args, result) -> None:
    span[_ITEMS_N] = result.requests_arrived


def _length(span, args, result) -> None:
    span[_ITEMS_N] = len(result)


def _entries(span, args, result) -> None:
    span[_ITEMS_N] = len(result.entries)


def _simulator_span(args, kwargs) -> str:
    return "serving.simulate" if args[0].chaos is None else "serving.chaos"


def _experiment_span(args, kwargs) -> str:
    target = args[0]
    return f"evaluation.{target if isinstance(target, str) else target.id}"


class Instrumentation:
    """Wraps the layers' entry points with spans; undone by :meth:`uninstall`.

    ``serving_only`` wraps just the serving run entry points, which is all
    an untraced run needs to count simulated requests (a few hundred spans
    per iteration at most).
    """

    def __init__(self, tracer: Tracer, serving_only: bool = False) -> None:
        self.tracer = tracer
        self.serving_only = serving_only
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, observe=None):
        """``fn`` inside a span; ``name`` is a string or ``(args, kwargs) -> str``.

        ``observe(span, args, result)`` records an item count on outermost
        spans (a nested call of the same layer would count twice).
        """
        open_span, close_span = self.tracer.open, self.tracer.close
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            span = open_span(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span)
            if observe is not None and span[_OUTER]:
                observe(span, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fn, name):
        """Each ``next()`` of the generator ``fn`` returns is one span."""
        tracer = self.tracer

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item

        return functools.update_wrapper(traced, fn)

    def _wrap_cache_report(self, fn):
        """Lookups become ``backends.cache_hit`` or ``backends.cache_fill``."""
        tracer = self.tracer

        def traced(cache, workload, batch_size):
            before = cache.cached_reports
            span = tracer.open("backends.cache_hit")
            try:
                return fn(cache, workload, batch_size)
            finally:
                tracer.close(span)
                if cache.cached_reports != before:
                    span[_NAME] = "backends.cache_fill"

        return functools.update_wrapper(traced, fn)

    # -- patching -------------------------------------------------------------

    def _patch_method(self, cls, attr, wrapper) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper(original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, module, attr, name, observe=None) -> None:
        """Rebind a function in every loaded ``repro`` module that holds it."""
        original = getattr(module, attr)
        traced = self._wrap(original, name, observe)
        _rebind(original, traced)
        self._undo.append(lambda: _rebind(traced, original))

    def install(self) -> "Instrumentation":
        """Wrap every entry point; returns ``self`` for chaining."""
        if self._undo:
            raise RuntimeError("instrumentation is already installed")
        # Import every layer first so module-level bindings exist to rebind
        # (the registry imports every experiment driver).
        mod = importlib.import_module
        mod("repro.evaluation.registry")
        simulator = mod("repro.serving.simulator")
        wrap = self._wrap
        for attr in ("run", "run_stream"):
            self._patch_method(
                simulator.ServingSimulator, attr,
                lambda fn: wrap(fn, _simulator_span, _arrived),
            )
        self._patch_function(
            mod("repro.serving.control"), "run_controlled", "serving.control",
            _arrived,
        )
        self._patch_function(
            mod("repro.serving.sessions"), "run_sessions", "serving.sessions",
            _arrived,
        )
        if self.serving_only:
            return self

        layers = mod("repro.neural.layers")
        for cls in (layers.Linear, layers.Conv2d):
            self._patch_method(
                cls, "__init__", lambda fn: wrap(fn, "neural.layer_init")
            )
        builders = mod("repro.workloads.registry").WORKLOAD_BUILDERS
        for name, builder in list(builders.items()):
            traced = wrap(builder, "workloads.build", _length)
            _rebind(builder, traced)
            builders[name] = traced
            self._undo.append(
                lambda name=name, builder=builder, traced=traced: (
                    _rebind(traced, builder),
                    builders.__setitem__(name, builder),
                )
            )
        schedulers = mod("repro.scheduler.schedulers")
        for cls in (schedulers.SequentialScheduler, schedulers.AdaptiveScheduler):
            self._patch_method(
                cls, "schedule",
                lambda fn: wrap(fn, "scheduler.schedule", _entries),
            )
        self._patch_method(
            mod("repro.scheduler.graph").OperationGraph, "ready_kernels",
            lambda fn: wrap(fn, "scheduler.ready_kernels"),
        )
        self._patch_method(
            mod("repro.hardware.accelerator").CogSysAccelerator, "kernel_cycles",
            lambda fn: wrap(fn, "hardware.kernel_cycles"),
        )
        for cls in (
            mod("repro.backends.cogsys").CogSysBackend,
            mod("repro.backends.devices").DeviceBackend,
        ):
            self._patch_method(
                cls, "execute", lambda fn: wrap(fn, "backends.execute")
            )
        self._patch_method(
            mod("repro.backends.cache").ExecutionCache, "report",
            self._wrap_cache_report,
        )
        for attr in ("factorize", "factorize_batch"):
            self._patch_method(
                mod("repro.core.factorizer").Factorizer, attr,
                lambda fn: wrap(fn, "core.factorize"),
            )
        self._patch_method(
            mod("repro.serving.traffic").ArrivalProcess, "generate",
            lambda fn: wrap(fn, "serving.traffic", _length),
        )
        self._patch_method(
            mod("repro.serving.trace").RequestTrace, "iter_chunks",
            lambda fn: self._wrap_generator(fn, "serving.trace_read"),
        )
        telemetry = mod("repro.serving.telemetry")
        for attr in ("derive_series", "_series_from_emits", "_series_from_columns"):
            self._patch_function(telemetry, attr, "serving.telemetry")
        self._patch_function(
            mod("repro.serving.metrics"), "summarize_result", "serving.metrics"
        )
        self._patch_function(mod("repro.dse.sweep"), "sweep", "dse.sweep")
        self._patch_function(mod("repro.dse.planner"), "plan_capacity", "dse.plan")
        engine = mod("repro.evaluation.engine")
        self._patch_function(engine, "run", _experiment_span)
        self._patch_method(
            engine.ResultTable, "to_markdown",
            lambda fn: wrap(fn, "evaluation.render"),
        )
        return self

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _rebind(old, new) -> None:
    """Replace ``old`` by ``new`` in every loaded ``repro`` module."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new
