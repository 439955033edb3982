"""Trace-replayable incident timelines for the serving event core.

A :class:`ChaosTimeline` is an immutable, validated list of
:class:`Incident` entries — chip failures, stragglers (degraded
service-time multipliers) and fleet-wide power-cap windows — that the
event core injects as ordinary heap events.  Timelines are plain data:
they serialize to/from JSON (``repro serve --chaos FILE``), scale with a
scenario's ``duration_scale``, and can be generated from a seed
(:meth:`ChaosTimeline.seeded`), so every incident a run experienced can
be replayed bit-for-bit.

Semantics, fixed here and enforced by the invariant suite:

* **chip_failure** — at ``at_s`` the chip goes down for ``duration_s``.
  The in-flight batch (if any) is killed and its requests counted
  **lost**; requests queued on the chip are dropped and counted
  **shed**; requests routed to the chip while it is down queue up and
  wait for recovery (routers are untouched — join-shortest-queue
  naturally drains away as the queue grows).  Conservation always
  holds: ``arrived == completed + shed + lost``.
* **straggler** — a per-chip service-time (and energy) multiplier
  active over a window.  Overlapping windows compose multiplicatively;
  when every window closes the multiplier is exactly ``1.0`` again.
* **power_cap** — a straggler applied to every chip at once (one
  incident, fleet-wide), modeling a DVFS power-cap window.

Events at the same instant order *after* arrivals and completions: a
batch finishing exactly at the failure instant completes normally, and
requests arriving exactly then are enqueued first (and therefore shed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ServingError
from repro.serving._checks import check_number, check_seed

__all__ = [
    "Incident",
    "ChaosTimeline",
    "chip_failure",
    "straggler",
    "power_cap",
]

#: incident kinds, frozen; also the JSON ``kind`` vocabulary
INCIDENT_KINDS = ("chip_failure", "straggler", "power_cap")

# Compiled event opcodes consumed by the event core.
OP_FAIL = 0
OP_RECOVER = 1
OP_SLOW_START = 2
OP_SLOW_END = 3


@dataclass(frozen=True)
class Incident:
    """One validated incident window on the timeline.

    ``chip`` is the target chip id for ``chip_failure``/``straggler``
    and ``None`` for the fleet-wide ``power_cap``; ``multiplier`` is the
    service-time factor for the two straggler kinds and ``None`` for
    failures.
    """

    kind: str
    at_s: float
    duration_s: float
    chip: int | None = None
    multiplier: float | None = None

    def __post_init__(self):
        _check_incident(
            self.kind, self.at_s, self.duration_s, self.chip, self.multiplier
        )

    @property
    def end_s(self) -> float:
        """The instant the incident's window closes."""
        return self.at_s + self.duration_s

    def to_dict(self) -> dict:
        """JSON-ready dict (``None`` fields omitted)."""
        out = {"kind": self.kind, "at_s": self.at_s,
               "duration_s": self.duration_s}
        if self.chip is not None:
            out["chip"] = self.chip
        if self.multiplier is not None:
            out["multiplier"] = self.multiplier
        return out


def _check_incident(kind, at_s, duration_s, chip, multiplier) -> None:
    """Raise :class:`ServingError` unless the fields make a valid incident."""
    if kind not in INCIDENT_KINDS:
        raise ServingError(
            f"unknown incident kind {kind!r}; expected one of {INCIDENT_KINDS}"
        )
    check_number("incident start", at_s, low=0)
    # ``inf`` is allowed: an incident that never ends (a chip that
    # never recovers strands its queue, counted shed at drain time).
    check_number("incident duration", duration_s, low=0, strict=True,
                 allow_inf=True)
    if kind == "power_cap":
        if chip is not None:
            raise ServingError("power_cap incidents are fleet-wide; "
                               "chip must be None")
    else:
        check_number(f"{kind} chip id", chip, low=0, integer=True)
    if kind == "chip_failure":
        if multiplier is not None:
            raise ServingError("chip_failure incidents have no multiplier")
    else:
        check_number(f"{kind} service-time multiplier", multiplier, low=0,
                     strict=True)


def _incident(kind, at_s, duration_s, chip=None, multiplier=None) -> Incident:
    """An :class:`Incident` of float times, its fields checked first."""
    _check_incident(kind, at_s, duration_s, chip, multiplier)
    return Incident(
        kind, float(at_s), float(duration_s),
        chip=None if chip is None else int(chip),
        multiplier=None if multiplier is None else float(multiplier),
    )


def chip_failure(chip: int, at_s: float, duration_s: float) -> Incident:
    """A chip going down at ``at_s`` and recovering ``duration_s`` later."""
    return _incident("chip_failure", at_s, duration_s, chip=chip)


def straggler(chip: int, at_s: float, duration_s: float,
              multiplier: float) -> Incident:
    """A degraded-chip window: service times scale by ``multiplier``."""
    return _incident("straggler", at_s, duration_s, chip=chip,
                     multiplier=multiplier)


def power_cap(at_s: float, duration_s: float, multiplier: float) -> Incident:
    """A fleet-wide service-time multiplier window (DVFS power cap)."""
    return _incident("power_cap", at_s, duration_s, multiplier=multiplier)


@dataclass(frozen=True)
class ChaosTimeline:
    """An immutable, replayable sequence of incidents.

    The empty timeline is valid and means "no chaos": the event core
    treats it exactly like no timeline at all, which the golden
    differential tests pin byte-for-byte.
    """

    incidents: tuple[Incident, ...] = field(default_factory=tuple)

    def __post_init__(self):
        incidents = tuple(self.incidents)
        object.__setattr__(self, "incidents", incidents)
        for incident in incidents:
            if not isinstance(incident, Incident):
                raise ServingError(
                    f"timeline entries must be Incident, got {incident!r}"
                )
        # Overlapping failure windows on one chip are ambiguous (is the
        # chip down once or twice?); reject them outright.
        failures: dict[int, list[tuple[float, float]]] = {}
        for incident in incidents:
            if incident.kind == "chip_failure":
                failures.setdefault(incident.chip, []).append(
                    (incident.at_s, incident.end_s)
                )
        for chip, windows in failures.items():
            windows.sort()
            for (_, prev_end), (start, _) in zip(windows, windows[1:]):
                if start < prev_end:
                    raise ServingError(
                        f"overlapping chip_failure windows on chip {chip}"
                    )

    def __bool__(self) -> bool:
        return bool(self.incidents)

    @property
    def max_chip(self) -> int:
        """Highest chip id any chip-scoped incident targets (-1 if none)."""
        chips = [i.chip for i in self.incidents if i.chip is not None]
        return max(chips) if chips else -1

    def windows(self) -> tuple[dict, ...]:
        """Per-incident window dicts, ordered by start time.

        The resilience metrics and provenance both consume this shape;
        it is the JSON form plus a stable ordering.
        """
        ordered = sorted(
            self.incidents, key=lambda i: (i.at_s, i.end_s, i.kind)
        )
        return tuple(incident.to_dict() for incident in ordered)

    def scaled(self, factor: float) -> ChaosTimeline:
        """The timeline with every start and duration scaled by ``factor``.

        Scenario presets carry timelines in unscaled time; ``run_scenario``
        applies the run's ``duration_scale`` so incidents stay aligned
        with the (scaled) traffic phases they were written against.
        """
        check_number("timeline scale factor", factor, low=0, strict=True)
        factor = float(factor)
        if factor == 1.0:
            return self
        return ChaosTimeline(tuple(
            Incident(i.kind, i.at_s * factor, i.duration_s * factor,
                     chip=i.chip, multiplier=i.multiplier)
            for i in self.incidents
        ))

    def compile(self, num_chips: int) -> list[tuple[float, int, int, float]]:
        """Flatten to ``(time, opcode, chip, multiplier)`` event tuples.

        ``power_cap`` fans out to one straggler pair per chip.  The list
        is sorted by ``(time, opcode, chip)`` so compilation order is
        deterministic; the event core assigns heap sequence numbers in
        this order.  Incidents with infinite duration emit no closing
        event: the chip stays down (or slow) until the run drains.
        """
        check_number("num_chips", num_chips, low=0, strict=True, integer=True)
        if self.max_chip >= num_chips:
            raise ServingError(
                f"timeline targets chip {self.max_chip} but the fleet has "
                f"{num_chips} chips"
            )
        events: list[tuple[float, int, int, float]] = []
        for incident in self.incidents:
            ends = math.isfinite(incident.end_s)
            if incident.kind == "chip_failure":
                events.append((incident.at_s, OP_FAIL, incident.chip, 0.0))
                if ends:
                    events.append(
                        (incident.end_s, OP_RECOVER, incident.chip, 0.0)
                    )
            else:
                chips = (
                    range(num_chips) if incident.chip is None
                    else (incident.chip,)
                )
                for chip in chips:
                    events.append((incident.at_s, OP_SLOW_START, chip,
                                   incident.multiplier))
                    if ends:
                        events.append((incident.end_s, OP_SLOW_END, chip,
                                       incident.multiplier))
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return events

    def to_json(self) -> str:
        """Serialize as the ``--chaos FILE`` JSON document."""
        return json.dumps(
            {"incidents": [i.to_dict() for i in self.incidents]}, indent=2
        ) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> ChaosTimeline:
        """Parse the JSON document shape back into a timeline."""
        if not isinstance(data, dict) or "incidents" not in data:
            raise ServingError(
                'chaos timeline JSON must be {"incidents": [...]}'
            )
        incidents = []
        for entry in data["incidents"]:
            extra = set(entry) - {"kind", "at_s", "duration_s", "chip",
                                  "multiplier"}
            if extra:
                raise ServingError(
                    f"unknown incident fields {sorted(extra)}"
                )
            try:
                incidents.append(_incident(
                    entry["kind"], entry["at_s"], entry["duration_s"],
                    entry.get("chip"), entry.get("multiplier"),
                ))
            except KeyError as missing:
                raise ServingError(
                    f"incident entry missing field {missing}"
                ) from None
        return cls(tuple(incidents))

    @classmethod
    def load(cls, path) -> ChaosTimeline:
        """Load a timeline from a ``--chaos`` JSON file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ServingError(
                f"cannot read chaos timeline {path}: {error}"
            ) from None
        return cls.from_dict(data)

    def dump(self, path) -> Path:
        """Write the timeline to ``path`` as JSON and return the path."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def seeded(cls, seed: int, num_chips: int, horizon_s: float, *,
               failure_rate: float = 0.0, straggler_rate: float = 0.0,
               mean_duration_s: float = 0.1,
               multiplier: float = 4.0) -> ChaosTimeline:
        """A deterministic seeded storm of incidents over ``horizon_s``.

        Incident starts are Poisson per chip (``*_rate`` in events per
        simulated second) with exponential durations, drawn from one
        ``numpy`` generator in a fixed chip-major order, so the same
        seed always yields the same timeline.  Failure windows that
        would overlap on a chip are pushed after the previous recovery
        to keep the timeline valid.
        """
        check_seed(seed)
        check_number("num_chips", num_chips, low=0, strict=True, integer=True)
        check_number("storm horizon", horizon_s, low=0, strict=True)
        for name, value in (("failure_rate", failure_rate),
                            ("straggler_rate", straggler_rate)):
            check_number(name, value, low=0)
        check_number("mean_duration_s", mean_duration_s, low=0, strict=True)
        check_number("multiplier", multiplier, low=0, strict=True)
        rng = np.random.default_rng(seed)
        incidents: list[Incident] = []
        for chip in range(num_chips):
            for rate, kind in ((failure_rate, "chip_failure"),
                               (straggler_rate, "straggler")):
                if rate <= 0.0:
                    continue
                now = 0.0
                floor = 0.0
                while True:
                    now += float(rng.exponential(1.0 / rate))
                    if now >= horizon_s:
                        break
                    duration = float(rng.exponential(mean_duration_s))
                    duration = max(duration, 1e-6)
                    if kind == "chip_failure":
                        start = max(now, floor)
                        incidents.append(chip_failure(chip, start, duration))
                        floor = start + duration
                    else:
                        incidents.append(
                            straggler(chip, now, duration, multiplier)
                        )
        return cls(tuple(incidents))
