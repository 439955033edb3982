"""PrAE workload model (probabilistic abduction and execution learner).

PrAE [Zhang et al., CVPR 2021] pairs a CNN scene-parsing front-end with a
purely probabilistic symbolic back-end: attribute beliefs are manipulated as
probability tensors (no hypervector binding), so its symbolic stage is
dominated by vector-vector multiplications and element-wise probability
updates rather than circular convolutions, yet it still sits on the
sequential critical path behind the neural stage.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.neural.network import build_perception_backbone
from repro.workloads.base import Workload
from repro.workloads.builders import (
    elementwise_kernel,
    lower_perception,
    matvec_kernel,
    stamp_chain,
)

__all__ = ["build_prae_workload"]

#: attribute domain sizes of the PrAE scene representation
PRAE_ATTRIBUTE_SIZES = [5, 6, 10, 9, 7]
#: number of rules hypothesised per attribute
PRAE_RULES_PER_ATTRIBUTE = 8


def build_prae_workload(
    grid_size: int = 3,
    num_candidates: int = 8,
    image_size: int = 80,
    hidden_dim: int = 512,
    num_tasks: int = 1,
) -> Workload:
    """Build the PrAE kernel graph for a batch of reasoning tasks."""
    if grid_size < 2:
        raise WorkloadError(f"grid_size must be >= 2, got {grid_size}")
    if num_tasks < 1:
        raise WorkloadError(f"num_tasks must be >= 1, got {num_tasks}")

    num_attributes = len(PRAE_ATTRIBUTE_SIZES)
    context_panels = grid_size * grid_size - 1
    num_panels = context_panels + num_candidates
    backbone = build_perception_backbone(
        name="prae_cnn",
        image_size=image_size,
        embedding_dim=hidden_dim,
        width=32,
        num_blocks=4,
    )

    perception = lower_perception(
        backbone, input_shape=(1, image_size, image_size), num_panels=num_panels
    )
    kernels = []
    for task in range(num_tasks):
        prefix = f"task{task}"
        neural = stamp_chain(perception, f"{prefix}/neuro", task_id=task)
        kernels.extend(neural)
        last_neural = neural[-1].name

        # Scene inference: project embeddings to per-attribute PMFs.
        scene_heads = matvec_kernel(
            f"{prefix}/symb/scene_inference",
            rows=sum(PRAE_ATTRIBUTE_SIZES),
            cols=hidden_dim,
            count=num_panels,
            task_id=task,
            depends_on=(last_neural,),
        )
        kernels.append(scene_heads)

        # Probabilistic abduction: evaluate every rule hypothesis against the
        # two complete rows for every attribute.  The probability tensors
        # include the joint position distribution over the 3x3 slot grid
        # (2^9 occupancy states), which is what makes this stage large, and
        # each (attribute, rule) pair is issued as its own small kernel.
        position_states = 2 ** (grid_size * grid_size)
        abduction_launches = num_attributes * PRAE_RULES_PER_ATTRIBUTE * (grid_size - 1)
        abduction_elements = (
            abduction_launches * max(PRAE_ATTRIBUTE_SIZES) ** 2 * position_states
        )
        abduction = elementwise_kernel(
            f"{prefix}/symb/rule_abduction",
            elements=abduction_elements,
            ops_per_element=3,
            count=abduction_launches,
            task_id=task,
            depends_on=(scene_heads.name,),
        )
        kernels.append(abduction)

        # Execution: predict the missing panel's PMFs under the abducted rules.
        execution = elementwise_kernel(
            f"{prefix}/symb/rule_execution",
            elements=num_attributes
            * PRAE_RULES_PER_ATTRIBUTE
            * max(PRAE_ATTRIBUTE_SIZES) ** 2
            * position_states,
            ops_per_element=3,
            count=num_attributes * PRAE_RULES_PER_ATTRIBUTE,
            task_id=task,
            depends_on=(abduction.name,),
        )
        kernels.append(execution)

        # Candidate scoring: divergence between prediction and each candidate.
        scoring = matvec_kernel(
            f"{prefix}/symb/candidate_scoring",
            rows=num_candidates,
            cols=sum(PRAE_ATTRIBUTE_SIZES),
            count=num_attributes,
            task_id=task,
            depends_on=(execution.name,),
        )
        kernels.append(scoring)

    weight_bytes = backbone.stats((1, image_size, image_size)).weight_bytes()
    codebook_bytes = (
        sum(PRAE_ATTRIBUTE_SIZES) * PRAE_RULES_PER_ATTRIBUTE * max(PRAE_ATTRIBUTE_SIZES) * 4 * 64
    )

    return Workload(
        name="prae",
        kernels=kernels,
        weight_bytes=weight_bytes,
        codebook_bytes=codebook_bytes,
        description=(
            "PrAE probabilistic abduction and execution: CNN scene parsing "
            "followed by probability-tensor rule abduction and execution."
        ),
    )
