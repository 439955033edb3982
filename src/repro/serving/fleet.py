"""Multi-chip fleet model: per-chip backends, service times and routing.

Each chip in the fleet is one *backend* — a CogSys accelerator by default,
but any registry name (``"a100"``, ``"tpu_like"``, an ablated CogSys
variant) works, and a fleet may mix them.  A chip's service time for a
batch of ``b`` same-workload requests is the end-to-end latency its
backend reports for the ``num_tasks=b`` variant of that workload; reports
are memoized per ``(workload, batch size)`` in a shared
:class:`~repro.backends.cache.ExecutionCache` per distinct backend — the
expensive part is building the kernel graph and scheduling it once, so the
discrete-event loop only does dictionary lookups.

Routing policies place an arriving request on a chip:

* :class:`RoundRobinRouter` — cyclic assignment, oblivious to load.
* :class:`JoinShortestQueueRouter` — least pending work (queued plus
  in-flight requests), the classic latency-optimal heuristic.
* :class:`WorkloadAffinityRouter` — workloads are sharded across chips and
  a request only goes to chips owning its workload (least-loaded among
  them).  Affinity keeps per-chip batches homogeneous, which is what the
  same-workload batching amortization needs.
* :class:`SymbolicAffinityRouter` — heterogeneous-fleet affinity: requests
  for symbolic-heavy workloads go to chips whose backend has native
  symbolic support (the CogSys family), neural-heavy workloads to the
  rest, least-loaded within each pool.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Protocol

from repro.backends.cache import ExecutionCache
from repro.backends.registry import backend_names, get_backend, is_symbolic_friendly
from repro.errors import BackendError, ServingError
from repro.serving.traffic import Request

__all__ = [
    "FleetServiceModel",
    "ChipView",
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "WorkloadAffinityRouter",
    "SymbolicAffinityRouter",
    "FixedOwnersRouter",
    "ROUTERS",
    "build_router",
    "Fleet",
]

#: backend every chip runs when a fleet does not say otherwise
DEFAULT_BACKEND = "cogsys"


class ChipView(Protocol):
    """The chip state a router is allowed to observe."""

    chip_id: int
    busy: bool
    inflight: int

    @property
    def queue_depth(self) -> int:
        """Requests queued on the chip (excluding the executing batch)."""
        ...


def _pending(chip: ChipView) -> int:
    """Requests a chip still owes: queued plus currently executing."""
    return chip.queue_depth + chip.inflight


class Router:
    """Base class for request-routing policies."""

    name = "base"

    def route(self, request: Request, chips: Sequence[ChipView]) -> int:
        """Index of the chip that should enqueue ``request``."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through the chips regardless of their load."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, request, chips):
        """The next chip in cyclic order, regardless of load."""
        chosen = self._next % len(chips)
        self._next += 1
        return chosen


class JoinShortestQueueRouter(Router):
    """Send the request to the chip with the fewest pending requests."""

    name = "jsq"

    def route(self, request, chips):
        """The chip with the least pending work (lowest id breaks ties)."""
        return min(chips, key=lambda chip: (_pending(chip), chip.chip_id)).chip_id


class WorkloadAffinityRouter(Router):
    """Shard workloads across chips; least-loaded owner wins.

    Chips are dealt to workloads round-robin (chip ``i`` serves workload
    ``i mod W`` of the sorted workload list), so every workload owns
    ``num_chips / W`` chips when the fleet is large and falls back to a
    single shared chip when it is smaller than the workload set.
    """

    name = "affinity"

    def __init__(self, num_chips: int, workloads: Sequence[str]) -> None:
        if num_chips < 1:
            raise ServingError(f"num_chips must be positive, got {num_chips}")
        if not workloads:
            raise ServingError("affinity router needs at least one workload")
        names = sorted(set(workloads))
        self.owners: dict[str, tuple[int, ...]] = {}
        for index, name in enumerate(names):
            owned = tuple(
                chip for chip in range(num_chips) if chip % len(names) == index
            )
            self.owners[name] = owned or (index % num_chips,)

    def route(self, request, chips):
        """The least-loaded chip among the workload's shard owners."""
        try:
            owners = self.owners[request.workload]
        except KeyError:
            raise ServingError(
                f"affinity router has no shard for workload '{request.workload}'"
            ) from None
        candidates = [chips[chip_id] for chip_id in owners]
        return min(candidates, key=lambda chip: (_pending(chip), chip.chip_id)).chip_id


class SymbolicAffinityRouter(Router):
    """Heterogeneous-fleet affinity keyed on native symbolic support.

    Chips whose backend exposes the reconfigurable symbolic mode (the
    CogSys family) form the *symbolic pool*; every other chip the *neural
    pool*.  A workload whose batch-1 report spends at least ``threshold``
    of its stage-summed runtime in symbolic kernels owns the symbolic
    pool, the rest own the neural pool; an empty pool falls back to the
    whole fleet, so homogeneous fleets degrade to join-shortest-queue.
    """

    name = "symbolic_affinity"

    def __init__(
        self,
        chip_backends: Sequence[str],
        workloads: Sequence[str],
        symbolic_fraction_of: Callable[[str], float],
        threshold: float = 0.5,
    ) -> None:
        if not chip_backends:
            raise ServingError("symbolic-affinity router needs at least one chip")
        if not workloads:
            raise ServingError("symbolic-affinity router needs at least one workload")
        if not 0.0 <= threshold <= 1.0:
            raise ServingError(f"threshold must be in [0, 1], got {threshold}")
        every_chip = tuple(range(len(chip_backends)))
        symbolic_pool = tuple(
            chip
            for chip, backend in enumerate(chip_backends)
            if is_symbolic_friendly(backend)
        )
        neural_pool = tuple(
            chip for chip in every_chip if chip not in symbolic_pool
        )
        self.symbolic_pool = symbolic_pool or every_chip
        self.neural_pool = neural_pool or every_chip
        self.owners: dict[str, tuple[int, ...]] = {}
        self.workload_symbolic_fraction: dict[str, float] = {}
        for name in sorted(set(workloads)):
            fraction = symbolic_fraction_of(name)
            self.workload_symbolic_fraction[name] = fraction
            self.owners[name] = (
                self.symbolic_pool if fraction >= threshold else self.neural_pool
            )

    def route(self, request, chips):
        """The least-loaded chip of the workload's symbolic/neural pool."""
        owners = self.owners.get(request.workload)
        if owners is None:
            raise ServingError(
                "symbolic-affinity router has no pool for workload "
                f"'{request.workload}'"
            )
        candidates = [chips[chip_id] for chip_id in owners]
        return min(candidates, key=lambda chip: (_pending(chip), chip.chip_id)).chip_id


class FixedOwnersRouter(Router):
    """Affinity router with an injected, pre-computed ownership table.

    The sharding layer uses this to rebuild a shard's slice of a parent
    affinity/symbolic-affinity router: the parent's ``owners`` mapping is
    remapped to shard-local chip ids and injected verbatim, so the shard
    routes exactly as the chips did inside the full fleet.  Re-dealing
    ownership over the shard's smaller workload set would pick different
    owners, which is why this router never computes its own table.  Owner
    tuples must be ascending chip ids, matching the builtin routers.
    """

    name = "fixed_owners"

    def __init__(self, owners: Mapping[str, Sequence[int]]) -> None:
        if not owners:
            raise ServingError("fixed-owners router needs an ownership table")
        self.owners: dict[str, tuple[int, ...]] = {
            workload: tuple(chip_ids) for workload, chip_ids in owners.items()
        }
        for workload, chip_ids in self.owners.items():
            if not chip_ids:
                raise ServingError(
                    f"fixed-owners router has an empty pool for '{workload}'"
                )

    def route(self, request, chips):
        """The least-loaded chip among the workload's fixed owners."""
        owners = self.owners.get(request.workload)
        if owners is None:
            raise ServingError(
                "fixed-owners router has no owners for workload "
                f"'{request.workload}'"
            )
        candidates = [chips[chip_id] for chip_id in owners]
        return min(candidates, key=lambda chip: (_pending(chip), chip.chip_id)).chip_id


#: names accepted by :func:`build_router`
ROUTERS: frozenset[str] = frozenset(
    {
        RoundRobinRouter.name,
        JoinShortestQueueRouter.name,
        WorkloadAffinityRouter.name,
        SymbolicAffinityRouter.name,
    }
)


def build_router(
    name: str,
    num_chips: int,
    workloads: Sequence[str],
    chip_backends: Sequence[str] | None = None,
    symbolic_fraction_of: Callable[[str], float] | None = None,
) -> Router:
    """Instantiate a routing policy by registry name."""
    if name == RoundRobinRouter.name:
        return RoundRobinRouter()
    if name == JoinShortestQueueRouter.name:
        return JoinShortestQueueRouter()
    if name == WorkloadAffinityRouter.name:
        return WorkloadAffinityRouter(num_chips, workloads)
    if name == SymbolicAffinityRouter.name:
        if chip_backends is None or symbolic_fraction_of is None:
            raise ServingError(
                "symbolic_affinity routing needs per-chip backends and a "
                "symbolic-fraction oracle (run it through ServingSimulator)"
            )
        return SymbolicAffinityRouter(chip_backends, workloads, symbolic_fraction_of)
    raise ServingError(f"unknown router '{name}'; known: {sorted(ROUTERS)}")


@dataclass(frozen=True)
class Fleet:
    """Static description of a serving fleet.

    ``backends`` names the backend of each chip: empty means every chip is
    a CogSys accelerator; fewer names than chips are cycled round-robin
    (``("cogsys", "a100")`` on four chips alternates them); more names than
    chips are rejected rather than silently truncated.
    """

    num_chips: int = 1
    router: str = RoundRobinRouter.name
    workloads: tuple[str, ...] = field(default_factory=tuple)
    backends: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_chips < 1:
            raise ServingError(f"num_chips must be positive, got {self.num_chips}")
        if self.router not in ROUTERS:
            raise ServingError(
                f"unknown router '{self.router}'; known: {sorted(ROUTERS)}"
            )
        if len(self.backends) > self.num_chips:
            raise ServingError(
                f"{len(self.backends)} backends for {self.num_chips} chip(s); "
                "backend names must not outnumber the fleet"
            )
        if self.backends:
            # Registry lookup only when backends are actually named, so the
            # default homogeneous fleet never pays for registry init.
            known = backend_names()
            for backend in self.backends:
                if backend not in known:
                    raise BackendError(
                        f"unknown backend '{backend}' in fleet; known "
                        f"backends: {list(known)}"
                    )

    @property
    def chip_backends(self) -> tuple[str, ...]:
        """Backend name of every chip (cycled when fewer names are given)."""
        if not self.backends:
            return (DEFAULT_BACKEND,) * self.num_chips
        return tuple(
            self.backends[chip % len(self.backends)] for chip in range(self.num_chips)
        )

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the fleet mixes more than one backend."""
        return len(set(self.chip_backends)) > 1

    @property
    def reference_chip(self) -> int:
        """Chip whose backend measures per-workload symbolic *demand*.

        Symbolic demand is only visible on a baseline backend — the CogSys
        family accelerates symbolic kernels so much that their share of
        runtime collapses — so the first chip *without* native symbolic
        support is the reference, falling back to chip 0 on all-CogSys
        fleets (where affinity pools degenerate to the whole fleet anyway).
        """
        for chip, backend in enumerate(self.chip_backends):
            if not is_symbolic_friendly(backend):
                return chip
        return 0

    def make_router(
        self,
        workloads: Sequence[str],
        symbolic_fraction_of: Callable[[str], float] | None = None,
    ) -> Router:
        """Build this fleet's router over the workload set actually served."""
        names = tuple(self.workloads) or tuple(workloads)
        return build_router(
            self.router,
            self.num_chips,
            names,
            chip_backends=self.chip_backends,
            symbolic_fraction_of=symbolic_fraction_of,
        )


class FleetServiceModel:
    """Per-chip service-time oracle for (possibly heterogeneous) fleets.

    Chips sharing a backend share one
    :class:`~repro.backends.cache.ExecutionCache`, so a fleet of eight
    CogSys chips still simulates each ``(workload, batch)`` point exactly
    once.  ``scheduler`` is applied per backend where supported (e.g.
    ``"sequential"`` pins the CogSys chips while the device chips — which
    only know sequential execution — are unaffected); backends that do not
    know it keep their default, and a scheduler no fleet backend supports
    is rejected at construction.
    """

    def __init__(
        self,
        fleet: Fleet | None = None,
        scheduler: str | None = None,
        workload_params: Mapping[str, Mapping[str, object]] | None = None,
    ) -> None:
        self.fleet = fleet or Fleet()
        self.chip_backends = self.fleet.chip_backends
        self._caches: dict[str, ExecutionCache] = {}
        for name in self.chip_backends:
            if name not in self._caches:
                backend = get_backend(name)
                supported = scheduler is not None and backend.supports_scheduler(
                    scheduler
                )
                self._caches[name] = ExecutionCache(
                    backend=backend,
                    scheduler=scheduler if supported else None,
                    workload_params=workload_params,
                )
        if scheduler is not None and all(
            cache.scheduler != scheduler for cache in self._caches.values()
        ):
            raise BackendError(
                f"no backend in the fleet supports scheduler '{scheduler}'; "
                f"fleet backends: {sorted(self._caches)}"
            )

    @property
    def num_chips(self) -> int:
        """Chips this model answers for."""
        return len(self.chip_backends)

    def for_chip(self, chip_id: int) -> ExecutionCache:
        """The execution cache serving ``chip_id``."""
        if not 0 <= chip_id < self.num_chips:
            raise ServingError(
                f"chip {chip_id} outside the {self.num_chips}-chip fleet"
            )
        return self._caches[self.chip_backends[chip_id]]

    def service_seconds(self, workload: str, batch_size: int, chip_id: int = 0) -> float:
        """Chip-occupancy seconds for one batch on ``chip_id``."""
        return self.for_chip(chip_id).service_seconds(workload, batch_size)

    def energy_joules(self, workload: str, batch_size: int, chip_id: int = 0) -> float:
        """Energy one batch costs on ``chip_id``."""
        return self.for_chip(chip_id).energy_joules(workload, batch_size)

    @property
    def scheduler(self) -> str:
        """Resolved scheduler(s), ``+``-joined when backends differ."""
        return "+".join(
            sorted({cache.scheduler for cache in self._caches.values()})
        )

    @property
    def cached_reports(self) -> int:
        """Distinct ``(workload, batch)`` executions across all backends."""
        return sum(cache.cached_reports for cache in self._caches.values())
