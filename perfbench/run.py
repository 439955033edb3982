"""The repository benchmark: one workload per process, end to end or per layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve_open --seed 0 --seconds 40 --trace 0

Workloads (see ``perfbench/workloads.py``):

* ``report_smoke`` — ``build_report(smoke=True, use_cache=False, workers=1)``,
  all 35 registered experiments, checked against the golden smoke report;
* ``serve_open`` — open-loop ``repro serve`` scenario runs and one trace
  replay over a shared, pre-filled ``ExecutionCache``;
* ``serve_feedback`` — controller, session and chaos loops over request
  streams generated in set-up (run by hand; ``BENCHMARK.json`` leaves it
  out, see its class docstring).

``--trace 0`` measures the end-to-end metrics with the layers unwrapped
(only the serving run entry points count simulated requests):

* ``wall_s`` — host wall clock of one iteration: the sum over its timed
  parts (serving runs, or the report's experiments) of each part's fastest
  run, over at least ``MIN_ITERATIONS`` iterations;
* ``setup_s`` — what a cold command pays before its first timed work: the
  fastest of ``IMPORT_REPEATS`` fresh interpreters that import the program
  and exit, plus the fastest of ``SETUP_REPEATS`` set-ups (traffic, trace
  recording and the cache-filling warm-up iteration);
* ``sim_req_per_s`` — simulated requests of one iteration (every serving
  run it makes) per second of ``wall_s``;
* ``peak_rss_mb`` — peak resident set of the process;
* ``ops_ok_frac`` — operations whose output check passed over operations
  attempted (``1 - ops_failed_frac``; the ratio that is never 0).

``--trace 1`` alternates untraced and traced iterations and reports each
layer's self time and counts per traced iteration (median), the traced
set-up's layer breakdown (``setup.*``) and the tracing overhead
(``trace.*``).  See ``perfbench/tracing.py``.

Every iteration does the same work, so the fastest run of each part is the
closest to what the program costs.  On a shared host other tenants slow
single iterations by up to 50% in bursts of seconds, and a run's median
moves with their load: across six 25-second serve_open runs the medians
spread 0.20 (quartile range over median), the fastest iterations 0.04.
Timing parts of 0.1-0.4 s (serve_open) rather than whole iterations finds
quiet moments even when bursts cover most of a run: across eight 40-second
runs at a busier time, medians spread 0.23, fastest iterations 0.11 and
sums of fastest parts 0.05.  Every iteration's outputs are checked outside
the timed region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("report_smoke", "serve_open", "serve_feedback")
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
#: report_smoke's ~20 s iteration would otherwise run once, with no second
#: chance for an experiment that a burst of host load slowed
MIN_ITERATIONS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_req_per_s": "req/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every metric a ``--trace 1`` run reports, with its unit."""
    from perfbench import tracing

    return {
        **tracing.PER_LAYER_UNITS,
        **{f"setup.{name}": tracing.PER_LAYER_UNITS[name]
           for name in tracing.SETUP_METRICS},
        **TRACE_UNITS,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure iterations for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1, also write every span as JSONL")
    return parser.parse_args(argv)


def _check_program(src: Path) -> None:
    """Put ``src`` first on the path and import the program from it."""
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source under {src}")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


class _Run:
    """Measurement loop state shared by the untraced and traced modes."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.outcomes = []
        self.digests = None
        self.last_outputs = None
        #: timed part -> wall clock of each of its runs
        self.part_seconds: dict[str, list[float]] = {}

    def timed_iteration(self) -> float:
        """One checked iteration; returns its wall clock."""
        self.last_outputs = None  # a user's process holds no earlier results
        gc.collect()
        started = time.perf_counter()
        outputs = self.workload.iteration()
        wall = time.perf_counter() - started
        for _, _, _, parts in outputs:
            for part, seconds in parts.items():
                self.part_seconds.setdefault(part, []).append(seconds)
        outcomes = self.workload.check(outputs)
        digests = [outcome.digest for outcome in outcomes]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            # Same inputs must give the same outputs, traced or not.
            outcomes = [
                outcome._replace(ok=False, detail="output changed between iterations")
                if new != old else outcome
                for outcome, new, old in zip(outcomes, digests, self.digests)
            ]
        self.outcomes.extend(outcomes)
        self.last_outputs = outputs
        return wall

    def finish(self) -> list:
        """Run the once-per-run checks; returns the last iteration's report."""
        final = self.workload.final_checks(self.last_outputs)
        self.outcomes.extend(final)
        return self.outcomes[-(len(self.digests) + len(final)):]


def _cold_import_s() -> float:
    """Fastest wall clock of a fresh interpreter that imports the program.

    Each child starts, imports every module the workloads use and exits,
    one after the other, so the time is what a cold command pays before it
    does any work.
    """
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join([str(ROOT), str(ROOT / "src")]),
    }
    times = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import perfbench.workloads"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - started)
    return min(times)


def _untraced(run: _Run, tracing, seconds: float) -> dict:
    imports_s = _cold_import_s()
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer, serving_only=True):
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            run.workload.setup()
            setups.append(time.perf_counter() - started)
        tracer.take()
        served = []
        deadline = time.perf_counter() + seconds
        while True:
            wall = run.timed_iteration()
            served.append(tracing.served_requests(tracer.take()))
            if len(served) >= MIN_ITERATIONS and time.perf_counter() + wall > deadline:
                break
    wall_s = sum(min(times) for times in run.part_seconds.values())
    return {
        "wall_s": wall_s,
        "setup_s": imports_s + min(setups),
        "sim_req_per_s": statistics.median(served) / wall_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _traced(run: _Run, tracing, seconds: float, spans_path: Path | None) -> dict:
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    windows = []
    with instrumentation:
        started = time.perf_counter()
        run.workload.setup()
        setup = tracing.layer_metrics(tracer.take(), time.perf_counter() - started)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run.timed_iteration())
        with instrumentation:
            wall = run.timed_iteration()
        spans = tracer.take()
        traced.append((wall, len(spans), tracing.layer_metrics(spans, wall)))
        if spans_path is not None:
            windows.append(spans)
        if time.perf_counter() + untraced[-1] + wall > deadline:
            break
    if spans_path is not None:
        _write_spans(spans_path, windows)
    metrics = {
        name: statistics.median(layers[name] for _, _, layers in traced)
        for name in tracing.PER_LAYER_UNITS
    }
    metrics.update(
        {f"setup.{name}": setup[name] for name in tracing.SETUP_METRICS}
    )
    traced_wall = statistics.median(wall for wall, _, _ in traced)
    untraced_wall = statistics.median(untraced)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.spans": statistics.median(count for _, count, _ in traced),
    })
    return metrics


def _write_spans(path: Path, windows: list) -> None:
    with path.open("w") as out:
        for iteration, spans in enumerate(windows):
            for index, (name, start, end, parent, items, _outer) in enumerate(spans):
                out.write(json.dumps({
                    "iteration": iteration, "index": index, "name": name,
                    "start": start, "end": end, "parent": parent, "items": items,
                }) + "\n")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None, *, scale: float = 1.0) -> int:
    """Run one workload; ``scale`` shrinks serving durations for tests."""
    args = _parse(argv)
    try:
        _check_program(ROOT / "src")
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads

    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    # Experiment drivers write temporary traces; keep every write in here.
    saved = tempfile.tempdir, os.environ.get("REPRO_CACHE_DIR")
    tempfile.tempdir = str(workdir)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    try:
        workload = workloads.WORKLOADS[args.workload](
            seed=args.seed, scale=scale, workdir=workdir, root=ROOT
        )
        run = _Run(workload)
        if args.trace:
            metrics = _traced(run, tracing, args.seconds, args.spans)
            units = per_layer_units()
        else:
            metrics = _untraced(run, tracing, args.seconds)
            units = END_TO_END_UNITS
        last = run.finish()
    finally:
        tempfile.tempdir = saved[0]
        if saved[1] is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved[1]
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still holds its directory

    attempted = len(run.outcomes)
    failed = sum(not outcome.ok for outcome in run.outcomes)
    metrics["ops_ok_frac"] = 1.0 - failed / attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for outcome in last:
        status = "ok" if outcome.ok else f"FAILED {outcome.detail}"
        print(f"digest {outcome.op} {outcome.digest or '-'} {status}")
    for outcome in run.outcomes:
        if not outcome.ok:
            print(f"failed {outcome.op}: {outcome.detail}", file=sys.stderr)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(f"metric ops_failed_frac {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    # String hashing is randomized per process, and the dict and set layouts
    # it yields move the serving loops' wall clock by ~10% from one process
    # to the next.  One fixed seed keeps runs comparable.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
