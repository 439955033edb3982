"""Evaluation harness: solvers, experiment registry, engine and reporting.

The cognitive solvers live in :mod:`repro.evaluation.solver`; the per-figure
experiment drivers are spread over six focused modules (``characterization``,
``accuracy_experiments``, ``hardware_experiments``, ``end_to_end``,
``serving_experiments``, ``dse_experiments``) and bound together by the declarative
:mod:`repro.evaluation.registry`.  Use
:mod:`repro.evaluation.engine` (or the ``repro`` CLI) to execute registered
experiments with on-disk result caching and optional process-level
parallelism.
"""

from repro.evaluation.solver import (
    CVRSolver,
    NeuroSymbolicSolver,
    SolverConfig,
    SVRTSolver,
)
from repro.evaluation.reporting import format_csv, format_markdown_table
from repro.evaluation import registry
from repro.evaluation import engine
from repro.evaluation.registry import ExperimentSpec, all_specs, get_spec
from repro.evaluation.engine import ResultTable, run, run_many

__all__ = [
    "NeuroSymbolicSolver",
    "SolverConfig",
    "CVRSolver",
    "SVRTSolver",
    "format_markdown_table",
    "format_csv",
    "registry",
    "engine",
    "ExperimentSpec",
    "all_specs",
    "get_spec",
    "ResultTable",
    "run",
    "run_many",
]
