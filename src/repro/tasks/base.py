"""Common task structures shared by the RPM-style generators."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import TaskGenerationError

__all__ = ["RPMTask", "TaskBatch"]

#: a panel is a flat mapping from attribute name to its symbolic value
PanelAttributes = Mapping[str, str]


@dataclass(frozen=True)
class RPMTask:
    """One Raven's-Progressive-Matrices-style task instance.

    Attributes
    ----------
    name:
        Dataset / configuration identifier, e.g. ``"raven/center"``.
    context:
        The eight visible panels of the 3x3 matrix in row-major order.
    candidates:
        The answer set (typically eight panels).
    answer_index:
        Index of the correct candidate.
    rules:
        Mapping from attribute name to the name of the governing rule.
    attribute_domains:
        Mapping from attribute name to its ordered value domain.
    """

    name: str
    context: tuple[PanelAttributes, ...]
    candidates: tuple[PanelAttributes, ...]
    answer_index: int
    rules: Mapping[str, str]
    attribute_domains: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if len(self.context) != 8:
            raise TaskGenerationError(
                f"task '{self.name}' must have 8 context panels, got {len(self.context)}"
            )
        if not self.candidates:
            raise TaskGenerationError(f"task '{self.name}' has no candidate answers")
        if not 0 <= self.answer_index < len(self.candidates):
            raise TaskGenerationError(
                f"task '{self.name}' answer index {self.answer_index} out of range"
            )
        for panel in tuple(self.context) + tuple(self.candidates):
            missing = set(self.attribute_domains) - set(panel)
            if missing:
                raise TaskGenerationError(
                    f"task '{self.name}' panel is missing attributes {sorted(missing)}"
                )

    @property
    def attributes(self) -> list[str]:
        """Attribute names in domain order."""
        return list(self.attribute_domains)

    @property
    def correct_answer(self) -> PanelAttributes:
        """The attributes of the correct candidate panel."""
        return self.candidates[self.answer_index]

    @property
    def num_candidates(self) -> int:
        """Size of the answer set."""
        return len(self.candidates)


@dataclass(frozen=True)
class TaskBatch:
    """A batch of tasks drawn from one generator."""

    name: str
    tasks: tuple[RPMTask, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, index: int) -> RPMTask:
        return self.tasks[index]

    def rule_histogram(self) -> dict[str, int]:
        """Count how often each rule name appears across attributes and tasks."""
        histogram: dict[str, int] = {}
        for task in self.tasks:
            for rule_name in task.rules.values():
                histogram[rule_name] = histogram.get(rule_name, 0) + 1
        return histogram
