"""Unified backend layer: one execution protocol for every hardware target.

Everything that can run a workload — the CogSys accelerator, its ablated
variants, the CPU/GPU/edge devices and the TPU/MTIA/Gemmini-like systolic
baselines — implements the same :class:`~repro.backends.base.Backend`
protocol and resolves through a string-keyed registry::

    from repro.backends import get_backend

    report = get_backend("cogsys").execute(workload)
    report = get_backend("a100").execute(workload)
    reports = get_backend("tpu_like").batched("nvsa", (1, 2, 4))

All reports are :class:`~repro.backends.base.ExecutionReport` instances,
so evaluation drivers, the serving fleet and the CLI no longer branch on
which hardware family they talk to.  See ``repro backends`` for the
registry listing and the top-level ``README.md`` for the how-to.

Only :mod:`repro.backends.base` is imported eagerly; the registry and its
adapters load on first use, so importing the protocol does not pull in
every hardware model.
"""

from repro.backends.base import Backend, ExecutionReport

__all__ = [
    "Backend",
    "ExecutionReport",
    "BackendInfo",
    "CustomSpec",
    "ExecutionCache",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_info",
    "describe_backend",
    "describe_backends",
    "is_symbolic_friendly",
]

#: lazily resolved attribute -> defining submodule (PEP 562)
_LAZY_ATTRS = {
    "BackendInfo": "repro.backends.registry",
    "CustomSpec": "repro.backends.registry",
    "register_backend": "repro.backends.registry",
    "get_backend": "repro.backends.registry",
    "backend_names": "repro.backends.registry",
    "backend_info": "repro.backends.registry",
    "describe_backend": "repro.backends.registry",
    "describe_backends": "repro.backends.registry",
    "is_symbolic_friendly": "repro.backends.registry",
    "ExecutionCache": "repro.backends.cache",
}


def __getattr__(name: str):
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.backends' has no attribute '{name}'")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
