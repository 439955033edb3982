"""Pluggable batching policies for the serving simulator.

A batching policy decides, whenever a chip is free to accept work, which
queued requests to launch as one batch.  Batches are always same-workload:
a batch of ``b`` requests for workload ``w`` executes as the ``num_tasks=b``
variant of ``w``'s kernel graph, which is exactly what the adaptive
scheduler amortizes (shared weights, interleaved neural/symbolic kernels,
one dispatch per kernel instead of ``b``).

The simulator consults a policy through one method::

    plan(groups, now_s) -> (workload, count, wake_s)

``groups`` maps each queued workload to its ``(arrival_s, request_id)``
entries, oldest first.  The batch is the first ``count`` entries of
``groups[workload]``; ``(None, 0, wake_s)`` waits, and ``wake_s`` is an
optional future time at which the simulator should consult the policy
again even if no new request arrives (used by timeout-based policies to cap
the wait of a partially filled batch).  All built-in policies implement
``plan`` over the groups directly, so dispatch never materializes the queue.

A policy may instead implement only the request-level method::

    select(queue, now_s) -> BatchDecision(batch, wake_s)

The base class's ``plan`` is then an adapter: it rebuilds the queue in
``(arrival_s, request_id)`` order, calls ``select``, and requires the batch
to be the oldest ``count`` requests of one workload — any other subset
raises :class:`~repro.errors.ServingError`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import ServingError
from repro.serving.traffic import Request

__all__ = [
    "Batch",
    "BatchDecision",
    "BatchingPolicy",
    "NoBatching",
    "FixedSizeBatching",
    "ContinuousBatching",
    "BATCHING_POLICIES",
    "build_policy",
]


@dataclass(frozen=True)
class Batch:
    """A same-workload group of requests dispatched together."""

    workload: str
    requests: tuple[Request, ...]
    formed_s: float

    def __post_init__(self) -> None:
        if not self.requests:
            raise ServingError("a batch must contain at least one request")
        if any(request.workload != self.workload for request in self.requests):
            raise ServingError("all requests of a batch must share one workload")

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return len(self.requests)


@dataclass(frozen=True)
class BatchDecision:
    """Outcome of consulting a batching policy."""

    batch: list[Request] | None
    wake_s: float | None = None


def _groups(queue: Sequence[Request]) -> dict[str, list[Request]]:
    """Queued requests grouped by workload, preserving queue (FIFO) order."""
    groups: dict[str, list[Request]] = {}
    for request in queue:
        groups.setdefault(request.workload, []).append(request)
    return groups


class BatchingPolicy:
    """Base class for batching policies."""

    name = "base"

    #: when the queue holds exactly one workload group, the batch is its
    #: first ``min(len(group), single_group_cap)`` entries with no wake-up;
    #: ``None`` means the single-group case still needs :meth:`plan`
    #: (e.g. timeout policies that may wait instead of dispatching).
    #: The simulator honours this shortcut only for the built-in policies —
    #: a subclass overriding :meth:`plan` always gets its plan called.
    single_group_cap: int | None = None

    #: a lone request arriving at an idle, empty chip dispatches immediately
    #: as a batch of one (must agree with what ``select``/``plan`` would
    #: decide for that one-request queue).  Like ``single_group_cap``, only
    #: honoured for the built-in policies.
    eager_singleton = False

    def select(self, queue: Sequence[Request], now_s: float) -> BatchDecision:
        """Pick the batch to dispatch at ``now_s`` (or when to re-check)."""
        raise NotImplementedError

    def plan(self, groups, now_s: float):
        """The batch to dispatch at ``now_s``: ``(workload, count, wake_s)``.

        ``groups`` maps workload name to that workload's queued
        ``(arrival_s, request_id)`` entries as a sequence-like object
        supporting ``len``/indexing/iteration (a columnar group in the
        scalar core, a cursor view over columnar arrays in the sharded
        engine), in first-occurrence (queue) order; each is non-empty and
        sorted.  Implementations return ``(workload, count, wake_s)`` where
        the batch is exactly the first ``count`` entries of
        ``groups[workload]``, or ``(None, 0, wake_s)`` to wait.

        This base implementation adapts :meth:`select`: it rebuilds the
        queue in ``(arrival_s, request_id)`` order, asks ``select`` for a
        batch, and raises :class:`~repro.errors.ServingError` unless that
        batch is one workload's oldest requests.
        """
        queue = tuple(
            Request(request_id, workload, arrival_s)
            for arrival_s, request_id, workload in sorted(
                (arrival_s, request_id, workload)
                for workload, entries in groups.items()
                for arrival_s, request_id in entries
            )
        )
        decision = self.select(queue, now_s)
        if decision.batch is None:
            return None, 0, decision.wake_s
        # Batch construction enforces the same-workload invariant.
        batch = Batch(
            workload=decision.batch[0].workload,
            requests=tuple(decision.batch),
            formed_s=now_s,
        )
        entries = groups[batch.workload]
        if batch.size > len(entries) or any(
            (request.arrival_s, request.request_id) != entry
            for request, entry in zip(batch.requests, entries)
        ):
            raise ServingError(
                f"policy '{self.name}' must batch the oldest queued requests "
                f"of one workload; got request ids "
                f"{[request.request_id for request in batch.requests]}"
            )
        return batch.workload, batch.size, None


class NoBatching(BatchingPolicy):
    """Dispatch the oldest queued request alone — the no-amortization baseline."""

    name = "none"
    single_group_cap = 1
    eager_singleton = True

    def select(self, queue, now_s):
        """Ship the oldest queued request as a batch of one."""
        if not queue:
            return BatchDecision(batch=None)
        return BatchDecision(batch=[queue[0]])

    def plan(self, groups, now_s):
        """Fast path: the workload whose head is the global queue head."""
        best_workload = None
        best_head = None
        for workload, entries in groups.items():
            head = entries[0]
            if best_head is None or head < best_head:
                best_head = head
                best_workload = workload
        return best_workload, 1, None


class FixedSizeBatching(BatchingPolicy):
    """Wait for ``batch_size`` same-workload requests, capped by a timeout.

    A full group dispatches immediately.  Otherwise the policy waits, but
    never longer than ``max_wait_s`` past the oldest queued request's
    arrival — when the timeout expires the partial group ships as-is, so a
    trickle of traffic cannot strand requests forever.
    """

    name = "fixed"

    def __init__(self, batch_size: int = 8, max_wait_s: float = 2e-3) -> None:
        if batch_size < 1:
            raise ServingError(f"batch_size must be positive, got {batch_size}")
        if not max_wait_s >= 0:
            raise ServingError(f"max_wait_s must be non-negative, got {max_wait_s}")
        self.batch_size = batch_size
        self.max_wait_s = max_wait_s
        # A one-request batch is already "full", so there is never a reason
        # to wait; larger targets may hold a lone request for the timeout.
        self.eager_singleton = batch_size == 1
        self.single_group_cap = 1 if batch_size == 1 else None

    def select(self, queue, now_s):
        """Dispatch the oldest full group, or a timed-out partial one."""
        if not queue:
            return BatchDecision(batch=None)
        groups = _groups(queue)
        full = [
            group for group in groups.values() if len(group) >= self.batch_size
        ]
        if full:
            # Oldest head first, so full groups drain in arrival order.
            chosen = min(full, key=lambda group: group[0].arrival_s)
            return BatchDecision(batch=chosen[: self.batch_size])
        oldest = min(groups.values(), key=lambda group: group[0].arrival_s)
        deadline = oldest[0].arrival_s + self.max_wait_s
        if now_s >= deadline:
            return BatchDecision(batch=oldest[: self.batch_size])
        return BatchDecision(batch=None, wake_s=deadline)

    def plan(self, groups, now_s):
        """Fast path: oldest full group, else the timed-out oldest partial."""
        size = self.batch_size
        full_workload = None
        full_head = None
        oldest_workload = None
        oldest_head = None
        for workload, entries in groups.items():
            head = entries[0]
            if oldest_head is None or head < oldest_head:
                oldest_head = head
                oldest_workload = workload
            if len(entries) >= size and (full_head is None or head < full_head):
                full_head = head
                full_workload = workload
        if full_workload is not None:
            return full_workload, size, None
        deadline = oldest_head[0] + self.max_wait_s
        if now_s >= deadline:
            return oldest_workload, len(groups[oldest_workload]), None
        return None, 0, deadline


class ContinuousBatching(BatchingPolicy):
    """Deadline-aware continuous batching.

    Whenever a chip frees up, everything queued for one workload (up to
    ``max_batch_size``) ships immediately — the continuous-batching idea of
    never idling a chip while work is queued.  Among workload groups, the
    one whose head-of-line request is closest to violating its SLO deadline
    goes first (earliest-deadline-first), so latency-critical stragglers are
    not starved by a deep queue of newer requests.  ``slo_s`` is either one
    deadline for every workload (EDF then degenerates to oldest-head-first)
    or a per-workload mapping, which lets a tight-SLO workload pre-empt an
    older but slacker group.
    """

    name = "continuous"

    #: deadline assumed for workloads absent from a per-workload SLO mapping
    DEFAULT_SLO_S = 5e-3

    def __init__(
        self, max_batch_size: int = 8, slo_s: float | Mapping[str, float] = 5e-3
    ) -> None:
        if max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be positive, got {max_batch_size}"
            )
        if isinstance(slo_s, Mapping):
            self.slo_by_workload = dict(slo_s)
            self.default_slo_s = self.DEFAULT_SLO_S
            slo_values = tuple(self.slo_by_workload.values())
        else:
            self.slo_by_workload = {}
            self.default_slo_s = float(slo_s)
            slo_values = (slo_s,)
        if not all(value > 0 for value in slo_values):
            raise ServingError(f"slo_s must be positive, got {slo_s}")
        self.max_batch_size = max_batch_size
        # Continuous batching never waits: a single group always ships its
        # head requests immediately, capped at the batch-size limit.
        self.single_group_cap = max_batch_size
        self.eager_singleton = True

    def _deadline(self, request: Request) -> float:
        """Latest dispatch time that can still meet the request's SLO."""
        slo = self.slo_by_workload.get(request.workload, self.default_slo_s)
        return request.arrival_s + slo

    def select(self, queue, now_s):
        """Dispatch the most deadline-urgent workload group, SLO permitting."""
        if not queue:
            return BatchDecision(batch=None)
        groups = _groups(queue)
        # Earliest head deadline first; workload name breaks exact ties so
        # the choice is independent of queue insertion history.
        urgent = min(
            groups.items(),
            key=lambda item: (self._deadline(item[1][0]), item[0]),
        )[1]
        return BatchDecision(batch=urgent[: self.max_batch_size])

    def plan(self, groups, now_s):
        """Fast path: most deadline-urgent workload group, name-tie-broken."""
        slo_by_workload = self.slo_by_workload
        default_slo = self.default_slo_s
        best_workload = None
        best_key = None
        for workload, entries in groups.items():
            slo = slo_by_workload.get(workload, default_slo) if slo_by_workload \
                else default_slo
            key = (entries[0][0] + slo, workload)
            if best_key is None or key < best_key:
                best_key = key
                best_workload = workload
        depth = len(groups[best_workload])
        cap = self.max_batch_size
        return best_workload, (cap if depth > cap else depth), None


#: policy name -> factory, the registry the CLI and experiment drivers use
BATCHING_POLICIES: dict[str, type[BatchingPolicy]] = {
    NoBatching.name: NoBatching,
    FixedSizeBatching.name: FixedSizeBatching,
    ContinuousBatching.name: ContinuousBatching,
}


def build_policy(name: str, **kwargs) -> BatchingPolicy:
    """Instantiate a batching policy by registry name."""
    try:
        factory = BATCHING_POLICIES[name]
    except KeyError:
        raise ServingError(
            f"unknown batching policy '{name}'; known: {sorted(BATCHING_POLICIES)}"
        ) from None
    return factory(**kwargs)
